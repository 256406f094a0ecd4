/**
 * @file
 * Tests for the observability layer: trace sink determinism and
 * non-perturbation, Histogram quantiles against a sorted oracle, the
 * hypervisor's admission spans, and the uniform collect_stats sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "capture_sink.h"
#include "hyp/hypervisor.h"
#include "noc/network.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "runtime/machine.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace vnpu {
namespace {

using noc::MeshTopology;
using noc::Network;
using noc::SendResult;
using runtime::Machine;

using testutil::SinkGuard;

SocConfig
net_cfg()
{
    SocConfig c = SocConfig::Fpga();
    c.mesh_x = 4;
    c.mesh_y = 4;
    return c;
}

/** Everything observable about one fixed NoC scenario. */
struct ScenarioResult {
    std::vector<SendResult> sends;
    Tick end = 0;
    int delivered = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::vector<Tick> busy;
    std::vector<noc::LinkCounters> links;
};

/** Run a fixed contention scenario, optionally traced into `sink`. */
ScenarioResult
run_scenario(obs::TraceSink* sink)
{
    SinkGuard guard(sink);
    SocConfig cfg = net_cfg();
    EventQueue eq;
    MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    Network net(cfg, topo, eq);
    ScenarioResult r;
    net.set_deliver_callback(
        [&r](int, int, std::uint64_t, int, VmId, bool) { ++r.delivered; });

    r.sends.push_back(net.send(0, 0, 5, 4096, 1, 7));
    r.sends.push_back(net.send(0, 3, 15, 2048, 2, 8));
    r.sends.push_back(net.send(10, 2, 2, 512, 1, 9));   // loopback
    r.sends.push_back(net.send(40, 0, 5, 4096, 1, 7));  // re-contend
    eq.run();
    net.trace_link_counters(eq.now());

    r.end = eq.now();
    r.messages = net.stats().messages.value();
    r.bytes = net.stats().bytes.value();
    for (int a : {0, 1, 2}) {
        r.busy.push_back(net.link_busy_until(a, a + 1));
    }
    r.links = net.link_counters();
    return r;
}

void
expect_same(const ScenarioResult& a, const ScenarioResult& b)
{
    ASSERT_EQ(a.sends.size(), b.sends.size());
    for (std::size_t i = 0; i < a.sends.size(); ++i) {
        EXPECT_EQ(a.sends[i].delivered, b.sends[i].delivered) << i;
        EXPECT_EQ(a.sends[i].sender_free, b.sends[i].sender_free) << i;
        EXPECT_EQ(a.sends[i].hops, b.sends[i].hops) << i;
    }
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.busy, b.busy);
    ASSERT_EQ(a.links.size(), b.links.size());
    for (std::size_t i = 0; i < a.links.size(); ++i) {
        EXPECT_EQ(a.links[i].flits, b.links[i].flits) << i;
        EXPECT_EQ(a.links[i].busy_ticks, b.links[i].busy_ticks) << i;
    }
}

TEST(TraceTest, DisabledByDefault)
{
    EXPECT_FALSE(obs::enabled());
    // Emitting with no sink must be a harmless no-op.
    obs::emit_instant("noop", "sim", 0, 0);
}

TEST(TraceTest, TracedRunIsByteIdenticalAcrossRuns)
{
    std::ostringstream os1, os2;
    {
        obs::ChromeTraceWriter w(os1);
        run_scenario(&w);
        obs::set_sink(nullptr);
        w.close();
        EXPECT_GT(w.num_events(), 0u);
    }
    {
        obs::ChromeTraceWriter w(os2);
        run_scenario(&w);
        obs::set_sink(nullptr);
        w.close();
    }
    // Timestamps are sim ticks, never wall clock, so a deterministic
    // simulation yields a byte-identical trace.
    EXPECT_EQ(os1.str(), os2.str());
}

TEST(TraceTest, TraceIsStructurallyValidChromeJson)
{
    std::ostringstream os;
    obs::ChromeTraceWriter w(os);
    run_scenario(&w);
    obs::set_sink(nullptr);
    w.close();

    const std::string t = os.str();
    EXPECT_EQ(t.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(t.find("\"ph\":\"X\""), std::string::npos); // msg spans
    EXPECT_NE(t.find("\"ph\":\"C\""), std::string::npos); // link counters
    EXPECT_NE(t.find("\"cat\":\"noc\""), std::string::npos);
    EXPECT_NE(t.find("\"cat\":\"sim\""), std::string::npos); // tick spans
    EXPECT_EQ(t.substr(t.size() - 3), "]}\n");
}

TEST(TraceTest, SinkDoesNotPerturbSimulation)
{
    ScenarioResult off = run_scenario(nullptr);
    std::ostringstream os;
    obs::ChromeTraceWriter w(os);
    ScenarioResult on = run_scenario(&w);
    obs::set_sink(nullptr);
    w.close();
    expect_same(off, on);
}

TEST(HistogramTest, EmptyAndSingleSample)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    h.record(42.0);
    EXPECT_EQ(h.quantile(0.0), 42.0);
    EXPECT_EQ(h.quantile(0.5), 42.0);
    EXPECT_EQ(h.quantile(1.0), 42.0);
    EXPECT_EQ(h.min(), 42.0);
    EXPECT_EQ(h.max(), 42.0);
    EXPECT_EQ(h.mean(), 42.0);
}

TEST(HistogramTest, QuantilesMatchSortedOracle)
{
    Histogram h;
    std::vector<double> vals;
    Rng rng(1234);
    for (int i = 0; i < 5000; ++i) {
        // Span several octaves: 1 .. ~1e6.
        double v = static_cast<double>(rng.next_below(1000000) + 1);
        vals.push_back(v);
        h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (double p : {0.5, 0.9, 0.99}) {
        const std::size_t rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(p * static_cast<double>(vals.size()))));
        const double oracle = vals[rank - 1];
        const double got = h.quantile(p);
        // Log-bucketed with 16 sub-buckets per octave: relative error
        // is bounded by 2^(1/16) - 1 (~4.4%).
        EXPECT_GT(got, oracle / 1.05) << "p=" << p;
        EXPECT_LT(got, oracle * 1.05) << "p=" << p;
    }
    EXPECT_EQ(h.count(), 5000u);
    EXPECT_EQ(h.min(), vals.front());
    EXPECT_EQ(h.max(), vals.back());
}

TEST(HistogramTest, MergeEqualsCombinedRecording)
{
    Histogram a, b, all;
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
        double v = static_cast<double>(rng.next_below(100000) + 1);
        (i % 2 == 0 ? a : b).record(v);
        all.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    for (double p : {0.25, 0.5, 0.9, 0.99})
        EXPECT_EQ(a.quantile(p), all.quantile(p)) << "p=" << p;
}

TEST(HistogramTest, CollectExportsQuantileKeys)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(i);
    StatSet st;
    h.collect(st, "lat.");
    EXPECT_EQ(st.get("lat.count", -1), 100.0);
    EXPECT_TRUE(st.has("lat.p50"));
    EXPECT_TRUE(st.has("lat.p90"));
    EXPECT_TRUE(st.has("lat.p99"));
    EXPECT_EQ(st.get("lat.min", -1), 1.0);
    EXPECT_EQ(st.get("lat.max", -1), 100.0);
}

/**
 * Strict JSON value parser (validate + collect string members). Just
 * substring-probing a dump cannot catch escaping faults; this actually
 * consumes every byte the way RFC 8259 says a reader will, and records
 * decoded string members, at any depth, for round-trip comparison.
 */
class JsonChecker {
  public:
    explicit JsonChecker(const std::string& s) : s_(s) {}

    bool
    parse()
    {
        pos_ = 0;
        if (!value(""))
            return false;
        skip_ws();
        return pos_ == s_.size();
    }

    /** Decoded string members by key (the last one of a key wins). */
    const std::map<std::string, std::string>& strings() const
    {
        return strings_;
    }

  private:
    void
    skip_ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char* lit)
    {
        const std::size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string_value(std::string& out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < s_.size()) {
            const unsigned char c =
                static_cast<unsigned char>(s_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return false; // raw control char: invalid JSON
            if (c == '\\') {
                if (++pos_ >= s_.size())
                    return false;
                const char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size())
                        return false;
                    unsigned v = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s_[pos_++];
                        v <<= 4;
                        if (h >= '0' && h <= '9')
                            v |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            v |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            v |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return false;
                    }
                    if (v > 0xFF)
                        return false; // error strings are raw bytes
                    out += static_cast<char>(v);
                    break;
                  }
                  default: return false;
                }
            } else {
                out += static_cast<char>(c);
                ++pos_;
            }
        }
        return false; // unterminated
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        std::size_t digits = 0;
        while (pos_ < s_.size() && std::isdigit(
                                       static_cast<unsigned char>(
                                           s_[pos_]))) {
            ++pos_;
            ++digits;
        }
        if (digits == 0)
            return false;
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return false;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() &&
                (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(s_[pos_])))
                return false;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    value(const std::string& key, int depth = 0)
    {
        skip_ws();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            skip_ws();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skip_ws();
                std::string k;
                if (!string_value(k))
                    return false;
                skip_ws();
                if (pos_ >= s_.size() || s_[pos_++] != ':')
                    return false;
                if (!value(k, depth + 1))
                    return false;
                skip_ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            return pos_ < s_.size() && s_[pos_++] == '}';
        }
        if (c == '[') {
            ++pos_;
            skip_ws();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                if (!value("", depth + 1))
                    return false;
                skip_ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            return pos_ < s_.size() && s_[pos_++] == ']';
        }
        if (c == '"') {
            std::string v;
            if (!string_value(v))
                return false;
            if (!key.empty())
                strings_[key] = v;
            return true;
        }
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    std::map<std::string, std::string> strings_;
};

TEST(AuditRingTest, DumpJsonlSurvivesAdversarialStrings)
{
    // Failure reasons flow straight from fatal() messages into the
    // admission span's `error` arg; under fleet churn they can carry
    // model names, quoted specs, file paths — any byte but NUL (a C
    // string arg ends there). Every trace must stay machine-parseable
    // JSON and round-trip the exact string.
    std::vector<std::string> nasty = {
        "plain reason",
        "quote \" backslash \\ slash / done",
        "newline \n tab \t cr \r backspace \b formfeed \f",
        "\"{]}\\u0000 not a real escape: \\x41",
        "high bytes \xc3\xa9\xf0\x9f\x92\xa9 pass through",
        "trailing backslash \\",
    };
    std::string all_controls;
    for (int c = 1; c < 0x20; ++c)
        all_controls += static_cast<char>(c);
    nasty.push_back(all_controls);

    for (const std::string& reason : nasty) {
        std::ostringstream os;
        {
            obs::ChromeTraceWriter w(os);
            SinkGuard guard(&w);
            const obs::TraceArg args[] = {
                obs::arg("cores", 4),
                obs::arg("strategy",
                         to_string(hyp::MappingStrategy::kSimilarTopology)),
                obs::arg("ok", 0), obs::arg("error", reason.c_str())};
            obs::emit(obs::TraceEvent{"admission", "hyp", 'X', 7, 0,
                                      obs::kTrackHyp, args, 4});
        }
        const std::string trace = os.str();
        JsonChecker parser(trace);
        ASSERT_TRUE(parser.parse()) << trace;
        const auto it = parser.strings().find("error");
        ASSERT_NE(it, parser.strings().end()) << trace;
        EXPECT_EQ(it->second, reason);
    }
}

TEST(HypervisorAuditTest, RecordsAdmissionsAndRejections)
{
    Machine m(SocConfig::Sim()); // 6x6
    hyp::Hypervisor hv(m.config(), m.topology(), m.controller());
    testutil::CaptureSink sink;
    SinkGuard guard(&sink);

    hyp::VnpuSpec ok;
    ok.num_cores = 6;
    ok.memory_bytes = 1ull << 20;
    virt::VirtualNpu& v = hv.create(ok);

    hyp::VnpuSpec bad;
    bad.num_cores = 37; // more cores than the 36-core mesh has
    EXPECT_THROW(hv.create(bad), SimFatal);

    const std::vector<testutil::CapturedEvent> spans =
        sink.named("admission");
    ASSERT_EQ(spans.size(), 2u);
    const testutil::CapturedEvent& adm = spans[0];
    EXPECT_EQ(adm.num.at("ok"), 1.0);
    EXPECT_EQ(adm.num.at("vm"), static_cast<double>(v.vm()));
    EXPECT_EQ(adm.num.at("cores"), 6.0);
    EXPECT_EQ(adm.dur, hv.last_setup_cost());
    EXPECT_GT(adm.dur, 0u);
    EXPECT_EQ(adm.str.count("error"), 0u);
    const testutil::CapturedEvent& rej = spans[1];
    EXPECT_EQ(rej.num.at("ok"), 0.0);
    EXPECT_EQ(rej.num.at("vm"), static_cast<double>(kNoVm));
    EXPECT_EQ(rej.num.at("cores"), 37.0);
    EXPECT_FALSE(rej.str.at("error").empty());
}

TEST(HypervisorAuditTest, AdmissionSpansReachTheTrace)
{
    testutil::CaptureSink sink;
    {
        SinkGuard guard(&sink);
        Machine m(SocConfig::Sim());
        hyp::Hypervisor hv(m.config(), m.topology(), m.controller());
        hyp::VnpuSpec spec;
        spec.num_cores = 4;
        hv.destroy(hv.create(spec).vm());
    }
    const std::vector<testutil::CapturedEvent> adm =
        sink.named("admission");
    ASSERT_EQ(adm.size(), 1u);
    EXPECT_EQ(adm[0].cat, "hyp");
    EXPECT_EQ(adm[0].ph, 'X');
    EXPECT_EQ(adm[0].str.at("strategy"),
              to_string(hyp::MappingStrategy::kSimilarTopology));
    const std::vector<testutil::CapturedEvent> destroy =
        sink.named("destroy");
    ASSERT_EQ(destroy.size(), 1u);
    EXPECT_EQ(destroy[0].cat, "hyp");
    EXPECT_EQ(destroy[0].ph, 'i');
    EXPECT_EQ(destroy[0].num.at("vm"), adm[0].num.at("vm"));
}

TEST(CollectStatsTest, HypervisorSweepMatchesLegacyCounters)
{
    Machine m(SocConfig::Sim());
    hyp::Hypervisor hv(m.config(), m.topology(), m.controller());
    for (int i = 0; i < 3; ++i) {
        hyp::VnpuSpec spec;
        spec.num_cores = 6;
        spec.strategy = hyp::MappingStrategy::kSimilarTopology;
        hv.create(spec);
    }
    StatSet st;
    hv.collect_stats(st);
    const hyp::HypervisorStats& legacy = hv.stats();
    EXPECT_EQ(st.get("hyp.vnpus_created", -1), 3.0);
    EXPECT_EQ(st.get("hyp.setup_cycles", -1),
              static_cast<double>(legacy.setup_cycles.value()));
    EXPECT_EQ(st.get("hyp.funnel.candidates", -1),
              static_cast<double>(legacy.funnel.candidates));
    EXPECT_EQ(st.get("hyp.funnel.lb_pruned", -1),
              static_cast<double>(legacy.funnel.lb_pruned));
    EXPECT_EQ(st.get("hyp.funnel.memo_hits", -1),
              static_cast<double>(legacy.funnel.memo_hits));
    EXPECT_EQ(st.get("hyp.funnel.full_ged", -1),
              static_cast<double>(legacy.funnel.full_ged));
    EXPECT_EQ(st.get("hyp.free_cores", -1),
              static_cast<double>(hv.num_free_cores()));
}

TEST(CollectStatsTest, MachineSweepCoversEveryLayer)
{
    Machine m(net_cfg());
    // Drive a little NoC traffic so the layers have something to say.
    m.network().send(0, 0, 5, 4096, kNoVm, 1);
    m.event_queue().run();
    StatSet st;
    m.collect_stats(st);
    EXPECT_TRUE(st.has("sim.events_executed"));
    EXPECT_TRUE(st.has("sim.busy_ticks"));
    EXPECT_TRUE(st.has("noc.messages"));
    EXPECT_TRUE(st.has("noc.msg_latency.p99"));
    EXPECT_TRUE(st.has("noc.links_used"));
    EXPECT_TRUE(st.has("mem.dram.bytes"));
    EXPECT_TRUE(st.has("mem.dma.transfers"));
    EXPECT_TRUE(st.has("core.contexts"));
    EXPECT_EQ(st.get("noc.messages", -1), 1.0);
    EXPECT_GT(st.get("sim.events_executed", 0), 0.0);
}

TEST(NetworkTelemetryTest, LinkCountersTrackFlitsAndBusy)
{
    SocConfig cfg = net_cfg();
    EventQueue eq;
    MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    Network net(cfg, topo, eq);
    // 4096 B = 2 packets over the 0->1 link (relay mode: whole-message
    // serialization per hop, busy = router(2) + 4096/16 = 258).
    net.send(0, 0, 1, 4096, kNoVm, 0);
    const auto& links = net.link_counters();
    const auto& l01 = links[0 * 4 + 0]; // node 0, east
    EXPECT_EQ(l01.flits, 2u);
    EXPECT_EQ(l01.busy_ticks, 2u + 256u);
    EXPECT_EQ(net.stats().msg_latency.count(), 1u);

    std::ostringstream os;
    net.write_link_heatmap(os, 1000);
    EXPECT_NE(os.str().find("\"from\": 0, \"to\": 1"), std::string::npos);
    EXPECT_NE(os.str().find("\"utilization\""), std::string::npos);

    net.reset();
    EXPECT_EQ(net.link_counters()[0].flits, 0u);
    EXPECT_EQ(net.stats().msg_latency.count(), 0u);
}

} // namespace
} // namespace vnpu
