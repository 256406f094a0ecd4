/**
 * @file
 * Workload runner of the repository benchmark (perfbench/README.md).
 *
 *   vnpu_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE]
 *
 * One caller thread runs the named workload as a closed loop of passes
 * until `--seconds` have elapsed (at least three untraced passes). Every
 * pass builds a fresh instance (set-up, timed on its own) and then runs
 * the timed phase in segments; `setup_s` is the median set-up and
 * `run_s` the sum of each segment's fastest pass. The modelled outputs
 * and per-layer counts of every pass must be identical, because they are
 * a pure function of the seed.
 *
 * With `--trace 1`, untraced and traced passes alternate. Spans are
 * recorded in memory around the calls this file makes into the
 * simulator's public API, the per-layer counts come from the public
 * `collect_stats` sweeps, and the spans are written as Chrome trace
 * JSON at exit. Nothing inside src/ is instrumented for this.
 *
 * Prints one JSON object on stdout. run.py checks it against the pinned
 * outputs and formats the benchmark result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "fleet/scheduler.h"
#include "hyp/hypervisor.h"
#include "noc/network.h"
#include "noc/topology.h"
#include "runtime/launcher.h"
#include "runtime/machine.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/task_pool.h"
#include "workload/model_zoo.h"

using namespace vnpu;

namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Statistics ------------------------------------------------------

/** Nearest-rank p-quantile (0 when empty). */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---- Spans -----------------------------------------------------------

/** One closed host-time span; `parent` indexes the enclosing span. */
struct Span {
    const char* name;
    const char* layer;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    int parent;
};

/**
 * In-memory span recorder for traced passes. The benchmark has one
 * caller thread, so spans nest strictly and a stack of open spans gives
 * each span its parent. While off, `open()` costs one branch.
 */
class Tracer {
  public:
    bool on = false;

    int
    open(const char* name, const char* layer)
    {
        if (!on)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, layer, now_ns(), 0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        stack_.pop_back();
    }

    /** Durations (microseconds) of every span called `name`. */
    std::vector<double>
    durations_us(const char* name) const
    {
        std::vector<double> out;
        for (const Span& s : spans_)
            if (std::strcmp(s.name, name) == 0)
                out.push_back(static_cast<double>(s.end_ns - s.begin_ns) /
                              1e3);
        return out;
    }

    const std::vector<Span>& spans() const { return spans_; }

    /** Chrome trace-event JSON (tools/check_trace.py schema). */
    bool
    write_chrome(const std::string& path) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\":[\n{\"name\":\"thread_name\",\"ph\":\"M\","
              "\"pid\":1,\"tid\":1,\"args\":{\"name\":\"benchmark "
              "caller\"}}";
        for (const Span& s : spans_) {
            os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << s.begin_ns / 1000
               << ",\"dur\":" << (s.end_ns - s.begin_ns) / 1000 << "}";
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    std::int64_t
    now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer g_tracer;

/** RAII span around one call into the simulator. */
class Scope {
  public:
    Scope(const char* name, const char* layer)
        : id_(g_tracer.open(name, layer))
    {
    }
    ~Scope() { g_tracer.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    int id_;
};

/** Per-span-name totals: self time is the span minus its children. */
struct SelfTimeRow {
    std::string layer;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

std::map<std::string, SelfTimeRow>
self_times(const std::vector<Span>& spans)
{
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.end_ns - s.begin_ns;
    std::map<std::string, SelfTimeRow> rows;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SelfTimeRow& r = rows[spans[i].name];
        const std::int64_t dur = spans[i].end_ns - spans[i].begin_ns;
        r.layer = spans[i].layer;
        ++r.count;
        r.total_ms += static_cast<double>(dur) / 1e6;
        r.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    }
    return rows;
}

// ---- Segmented timing ------------------------------------------------

/**
 * Wall time of one pass's timed phase, split into segments that end at
 * fixed points of its deterministic work (every N fleet steps, every
 * admission request), so that passes can be compared segment by segment.
 */
class Laps {
  public:
    void
    start()
    {
        s_.clear();
        t_ = Clock::now();
    }

    /** Close the current segment and open the next. */
    void
    lap()
    {
        const Clock::time_point now = Clock::now();
        s_.push_back(std::chrono::duration<double>(now - t_).count());
        t_ = now;
    }

    const std::vector<double>& segments() const { return s_; }

  private:
    Clock::time_point t_;
    std::vector<double> s_;
};

/**
 * The timed phase's host time with the host's slow phases filtered
 * out: the sum over segments of each segment's fastest pass. Every pass
 * does identical work, so the noise only ever adds time; host slowdowns
 * last seconds, so a segment's fastest pass is rarely a slow one.
 * Returns -1 if the passes disagree on the segment count (a
 * nondeterministic timed phase).
 */
double
best_segments_s(const std::vector<std::vector<double>>& passes)
{
    if (passes.empty())
        return 0.0;
    std::vector<double> best = passes.front();
    for (const std::vector<double>& p : passes) {
        if (p.size() != best.size())
            return -1.0;
        for (std::size_t i = 0; i < p.size(); ++i)
            best[i] = std::min(best[i], p[i]);
    }
    double sum = 0.0;
    for (double s : best)
        sum += s;
    return sum;
}

// ---- Workloads -------------------------------------------------------

/** What one pass produced. `pins` and `counts` are deterministic. */
struct PassResult {
    Metrics pins;   ///< Modelled outputs checked against pins.json.
    Metrics counts; ///< Per-layer counts from the collect_stats sweeps.
    std::uint64_t ops = 0;    ///< Operations attempted in the pass.
    std::vector<std::string> errors; ///< Broken invariants.
};

/**
 * One benchmark workload. A pass is setup() (construction, input
 * generation, warm-up), run() (the timed phase, which calls
 * `laps.lap()` at the end of each segment, the last one included), then
 * finish(), which reads the outputs and releases the instance.
 */
class Workload {
  public:
    virtual ~Workload() = default;
    virtual void setup() = 0;
    virtual void run(Laps& laps) = 0;
    virtual PassResult finish() = 0;
    /** Release an instance that was set up but not run. */
    virtual void discard() = 0;
    /** Traced-only measurements taken after a pass (fleet_frag). */
    virtual Metrics probe() { return {}; }
};

/** One chip's control plane: the objects a Hypervisor references. */
struct Chip {
    explicit Chip(const SocConfig& c)
        : cfg(c), topo(c.mesh_x, c.mesh_y), ctrl(cfg, topo),
          hv(cfg, topo, ctrl)
    {
    }
    SocConfig cfg;
    noc::MeshTopology topo;
    core::NpuController ctrl;
    hyp::Hypervisor hv;
};

/**
 * Lazy warm-up, part of every set-up: start the TaskPool threads and
 * run one throwaway similar admission on a separate hypervisor, so the
 * measured mapper's memo still starts empty and no timed phase pays
 * for thread creation.
 */
void
warm_up()
{
    Chip chip(SocConfig::Sim());
    hyp::VnpuSpec spec;
    spec.num_cores = 12;
    chip.hv.destroy(chip.hv.create(spec).vm());
    TaskPool& pool = TaskPool::instance();
    pool.parallel_for(0, pool.num_workers() + 1, [](int) {});
}

/** Sum the hypervisor counters of the per-layer table into `out`. */
void
add_hyp_counts(const hyp::Hypervisor& hv, Metrics& out)
{
    StatSet s;
    hv.collect_stats(s, "hyp.");
    for (const char* k :
         {"hyp.vnpus_created", "hyp.allocation_failures", "hyp.setup_cycles",
          "hyp.route_cache.hits", "hyp.route_cache.misses",
          "hyp.mapper.search_steps", "hyp.funnel.candidates",
          "hyp.funnel.lb_pruned", "hyp.funnel.memo_hits",
          "hyp.funnel.memo_misses", "hyp.funnel.ted0_hits",
          "hyp.funnel.full_ged"})
        out[k] += s.get(k);
}

/**
 * fleet_frag: 4 x 32x32 devices, Poisson arrivals at mean gap 2000
 * (~0.75 offered load), first-fit, defrag on, 10k arrivals — the
 * fragmentation-bound row of bench/sweep_fleet.cpp's defrag table, so
 * seed 42 reproduces its hash48. The open loop runs in simulated time;
 * the host loop calls FleetSimulator::step until every request is
 * decided.
 */
class FleetFrag : public Workload {
  public:
    explicit FleetFrag(std::uint64_t seed)
    {
        SocConfig dev = SocConfig::Sim();
        dev.mesh_x = 32;
        dev.mesh_y = 32;
        dev.hbm_channels = 32;
        dev.meta_zone_bytes = 256 * 1024;
        cfg_.num_devices = 4;
        cfg_.device = dev;
        cfg_.seed = seed;
        cfg_.policy = fleet::PlacementPolicy::kFirstFit;
        cfg_.arrival.model = fleet::ArrivalModel::kPoisson;
        cfg_.arrival.mean_gap = 2000;
        cfg_.max_arrivals = 10'000;
        cfg_.defrag = true;
    }

    void
    setup() override
    {
        warm_up();
        sim_ = std::make_unique<fleet::FleetSimulator>(cfg_);
        steps_ = 0;
    }

    void
    run(Laps& laps) override
    {
        std::size_t seen = 0;
        while (true) {
            bool more = false;
            {
                Scope s("fleet.step", "fleet");
                more = sim_->step();
            }
            if (g_tracer.on)
                note_regions(seen);
            if (!more)
                break;
            if (++steps_ % kStepsPerLap == 0)
                laps.lap();
        }
        laps.lap();
    }

    PassResult
    finish() override
    {
        PassResult r;
        const fleet::FleetStats& st = sim_->stats();
        const double arrivals = static_cast<double>(st.arrivals.value());
        const double admitted = static_cast<double>(st.admitted.value());
        const double rejected = static_cast<double>(st.rejected.value());
        r.ops = st.arrivals.value();
        if (st.arrivals.value() != cfg_.max_arrivals ||
            admitted + rejected != arrivals || sim_->live_tenants() != 0 ||
            sim_->queue_depth() != 0)
            r.errors.push_back("fleet conservation: not every arrival "
                               "was decided and departed");
        Metrics hyp;
        for (int d = 0; d < sim_->num_devices(); ++d) {
            const hyp::Hypervisor& hv = sim_->device(d).hypervisor();
            if (hv.num_free_cores() != sim_->device(d).num_cores())
                r.errors.push_back("fleet: device " + std::to_string(d) +
                                   " still holds cores after the run");
            add_hyp_counts(hv, hyp);
        }

        r.pins["hash48"] = static_cast<double>(sim_->decision_hash48());
        r.pins["admitted"] = admitted;
        r.pins["rejected"] = rejected;
        r.pins["wait_p50_ticks"] = st.admission_wait.quantile(0.5);
        r.pins["wait_p99_ticks"] = st.admission_wait.quantile(0.99);
        r.pins["blocked_pct"] = 100.0 * ratio(rejected, arrivals);
        r.pins["util_mean"] = sim_->utilization_mean();
        r.pins["mean_ted"] = st.realized_ted.mean();
        r.pins["makespan_ticks"] = static_cast<double>(sim_->now());

        StatSet fs;
        sim_->collect_stats(fs);
        r.counts = hyp;
        r.counts["fleet.steps"] = static_cast<double>(steps_);
        for (const char* k :
             {"fleet.defrag.attempts", "fleet.defrag.success",
              "fleet.migrations", "fleet.preemptions",
              "fleet.queue.depth_mean"})
            r.counts[k] = fs.get(k);
        sim_.reset();
        return r;
    }

    void discard() override { sim_.reset(); }

    /**
     * Time RouteOverride::build_confined on each distinct admitted
     * region, bucketed by region size (at most kPerBucket regions per
     * bucket, in admission order).
     */
    Metrics
    probe() override
    {
        static constexpr int kMax[] = {16, 64, 256};
        static constexpr const char* kName[] = {"le16", "le64", "le256"};
        static constexpr std::size_t kPerBucket = 1000;
        const noc::MeshTopology topo(cfg_.device.mesh_x, cfg_.device.mesh_y);
        std::vector<double> us[3];
        double regions[3] = {0.0, 0.0, 0.0};
        double admits[3] = {0.0, 0.0, 0.0};
        for (const CoreSet& region : regions_) {
            int b = 0;
            while (b < 3 && region.count() > kMax[b])
                ++b;
            if (b == 3)
                continue; // no tenant class exceeds 256 cores
            regions[b] += 1.0;
            admits[b] += static_cast<double>(admits_.at(region));
            if (us[b].size() >= kPerBucket)
                continue;
            // Fastest of three: the first build of a 2 MB table also pays
            // the page faults the fleet loop's reused memory does not.
            Scope s("noc.route_build", "noc");
            double best_us = std::numeric_limits<double>::infinity();
            for (int rep = 0; rep < 3; ++rep) {
                const Clock::time_point t0 = Clock::now();
                const noc::RouteOverride table =
                    noc::RouteOverride::build_confined(topo, region);
                best_us = std::min(best_us, seconds_since(t0) * 1e6);
            }
            us[b].push_back(best_us);
        }
        Metrics out;
        double mix_us = 0.0;
        for (int b = 0; b < 3; ++b) {
            const std::string k = kName[b];
            out["noc.route_build_us.p50." + k] = quantile(us[b], 0.5);
            out["noc.route_build_us.p99." + k] = quantile(us[b], 0.99);
            out["noc.route_build.regions." + k] = regions[b];
            out["noc.route_build.admits." + k] = admits[b];
            mix_us += admits[b] * quantile(us[b], 0.5);
        }
        // The bucket p50s weighted by how often each bucket was admitted.
        out["noc.route_build_us.mix_p50"] =
            ratio(mix_us, admits[0] + admits[1] + admits[2]);
        return out;
    }

  private:
    /** ~100 segments of ~0.1 s in a 10k-arrival run. */
    static constexpr std::uint64_t kStepsPerLap = 256;

    /** Record the regions admitted by the step that just ran. */
    void
    note_regions(std::size_t& seen)
    {
        const std::vector<fleet::FleetDecision>& ds = sim_->decisions();
        for (; seen < ds.size(); ++seen) {
            const fleet::FleetDecision& d = ds[seen];
            if (!d.admitted)
                continue;
            const virt::VirtualNpu* v =
                sim_->device(d.device).hypervisor().find(d.vm);
            if (v != nullptr && admits_[v->mask()]++ == 0)
                regions_.push_back(v->mask());
        }
    }

    fleet::FleetConfig cfg_;
    std::unique_ptr<fleet::FleetSimulator> sim_;
    std::uint64_t steps_ = 0;
    std::vector<CoreSet> regions_; ///< Distinct, in admission order.
    std::unordered_map<CoreSet, std::uint64_t> admits_;
};

/**
 * admit_similar: kSimilarTopology requests of 8-47 cores on one 32x32
 * hypervisor, where the admission funnel does most of the work. Before
 * each request the mesh is refragmented from that request's own seed
 * substream: every tenant retires, straightforward-mapped tenants fill
 * the mesh, and a random half of them retire. A request's cost depends
 * strongly on the fragmentation it meets (a 40-core request costs 10 or
 * 85 ms), so requests that shared a drifting state made the pass cost
 * vary by +-30% between seeds; independent states average out. The
 * refragmenting is cheap next to the funnel. Set-up builds the chip,
 * so the mapper's memo starts empty in every pass.
 */
class AdmitSimilar : public Workload {
  public:
    static constexpr int kMinCores = 8;
    static constexpr int kMaxCores = 47;
    /** Every size in [kMinCores, kMaxCores] this many times per pass. */
    static constexpr int kRounds = 24;
    static constexpr int kRequests = kRounds * (kMaxCores - kMinCores + 1);

    explicit AdmitSimilar(std::uint64_t seed) : seed_(seed)
    {
        cfg_ = SocConfig::Sim();
        cfg_.mesh_x = 32;
        cfg_.mesh_y = 32;
        cfg_.hbm_channels = 32;
    }

    void
    setup() override
    {
        warm_up();
        sizes_.clear();
        for (int i = 0; i < kRequests; ++i)
            sizes_.push_back(kMinCores + i % (kMaxCores - kMinCores + 1));
        Rng order = Rng::substream(seed_, kRequests);
        for (std::size_t i = sizes_.size() - 1; i > 0; --i)
            std::swap(sizes_[i], sizes_[order.next_below(i + 1)]);
        chip_ = std::make_unique<Chip>(cfg_);
        live_.clear();
        admitted_ = refused_ = 0;
        ted_sum_ = 0.0;
    }

    void
    run(Laps& laps) override
    {
        for (std::size_t r = 0; r < sizes_.size(); ++r) {
            Rng rng = Rng::substream(seed_, r);
            refragment(rng);
            hyp::VnpuSpec spec;
            spec.num_cores = sizes_[r];
            spec.strategy = hyp::MappingStrategy::kSimilarTopology;
            spec.max_candidates = 64;
            try {
                Scope s("hyp.create", "hyp");
                const virt::VirtualNpu& v = chip_->hv.create(spec);
                live_.push_back(v.vm());
                ++admitted_;
                ted_sum_ += v.mapping_ted();
            } catch (const SimFatal&) {
                ++refused_;
            }
            laps.lap();
        }
    }

    PassResult
    finish() override
    {
        while (!live_.empty())
            retire(live_.size() - 1);
        PassResult r;
        r.ops = static_cast<std::uint64_t>(kRequests);
        if (chip_->hv.num_free_cores() != cfg_.num_cores())
            r.errors.push_back("admit_similar: cores leaked after every "
                               "tenant was destroyed");
        add_hyp_counts(chip_->hv, r.counts);
        r.pins["admitted"] = static_cast<double>(admitted_);
        r.pins["refused"] = static_cast<double>(refused_);
        r.pins["admit_fail_pct"] =
            100.0 * ratio(static_cast<double>(refused_), kRequests);
        r.pins["mean_ted"] =
            ratio(ted_sum_, static_cast<double>(admitted_));
        for (const char* k :
             {"hyp.funnel.candidates", "hyp.funnel.lb_pruned",
              "hyp.funnel.memo_hits", "hyp.funnel.ted0_hits",
              "hyp.funnel.full_ged", "hyp.setup_cycles"})
            r.pins[k] = r.counts[k];
        chip_.reset();
        return r;
    }

    void discard() override { chip_.reset(); }

  private:
    /** Retire every tenant, refill the mesh, retire a random half. */
    void
    refragment(Rng& rng)
    {
        while (!live_.empty())
            retire(live_.size() - 1);
        hyp::VnpuSpec fill;
        fill.strategy = hyp::MappingStrategy::kStraightforward;
        // Row-major first-free regions can be disconnected.
        fill.noc_isolation = false;
        while (chip_->hv.num_free_cores() > kMaxCores) {
            fill.num_cores = kMinCores + static_cast<int>(rng.next_below(
                                             kMaxCores - kMinCores + 1));
            live_.push_back(chip_->hv.create(fill).vm());
        }
        for (std::size_t n = live_.size() / 2; n > 0; --n)
            retire(rng.next_below(live_.size()));
    }

    void
    retire(std::size_t i)
    {
        Scope s("hyp.destroy", "hyp");
        chip_->hv.destroy(live_[i]);
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    }

    std::uint64_t seed_;
    SocConfig cfg_;
    std::vector<int> sizes_; ///< Timed requests, in order.
    std::unique_ptr<Chip> chip_;
    std::vector<VmId> live_;
    std::uint64_t admitted_ = 0, refused_ = 0;
    double ted_sum_ = 0.0;
};

/**
 * tenant_traffic: one 16x16 runtime::Machine shared by six tenants,
 * each admitted by the hypervisor (exact strip regions, confined routes)
 * and running a model-zoo workload through WorkloadLauncher with the
 * vRouter and vChunk translation on. The seed assigns the six models to
 * the six strips. Machine::run is the timed phase; the mapper and route
 * builds run only in set-up.
 */
class TenantTraffic : public Workload {
  public:
    static constexpr int kIterations = 128;

    explicit TenantTraffic(std::uint64_t seed)
    {
        cfg_ = SocConfig::Sim();
        cfg_.mesh_x = 16;
        cfg_.mesh_y = 16;
        cfg_.hbm_channels = 16;
        // Confined-route tables grow with region^2 (docs/fleet.md).
        cfg_.meta_zone_bytes = 256 * 1024;
        order_ = {0, 1, 2, 3, 4, 5};
        Rng rng = Rng::substream(seed, 0);
        for (std::size_t i = order_.size() - 1; i > 0; --i)
            std::swap(order_[i], order_[rng.next_below(i + 1)]);
    }

    void
    setup() override
    {
        warm_up();
        {
            Scope s("runtime.machine_ctor", "runtime");
            m_ = std::make_unique<runtime::Machine>(cfg_);
        }
        hv_ = std::make_unique<hyp::Hypervisor>(
            m_->config(), m_->topology(), m_->controller());
        launcher_ = std::make_unique<runtime::WorkloadLauncher>(*m_);
        runtime::LaunchOptions opt;
        opt.iterations = kIterations;
        // Weights re-stream every iteration, so DMA and vChunk
        // translation run in the timed phase beside the NoC traffic.
        opt.force_stream_weights = true;
        for (std::size_t i = 0; i < order_.size(); ++i) {
            hyp::VnpuSpec spec;
            spec.topo = graph::Graph::mesh(16, kStripRows[i]);
            spec.strategy = hyp::MappingStrategy::kExact;
            spec.memory_bytes = 2ull << 30;
            const virt::VirtualNpu* v = nullptr;
            {
                Scope s("hyp.create", "hyp");
                v = &hv_->create(spec);
            }
            workload::Model model = workload::by_name(kModels[order_[i]]);
            model.set_weight_precision(1);
            Scope s("runtime.load", "runtime");
            runs_.push_back(launcher_->load(*v, model, opt));
        }
    }

    void
    run(Laps& laps) override
    {
        {
            Scope s("runtime.machine_run", "runtime");
            m_->run();
        }
        laps.lap();
    }

    PassResult
    finish() override
    {
        PassResult r;
        r.ops = runs_.size();
        Tick makespan = 0;
        double ted_sum = 0.0;
        for (const runtime::LoadedRun& lr : runs_) {
            const runtime::LaunchResult res = launcher_->collect(lr);
            if (res.iterations != static_cast<std::uint64_t>(kIterations))
                r.errors.push_back("tenant_traffic: a tenant stopped "
                                   "short of its iterations");
            makespan = std::max(makespan, res.makespan);
            ted_sum += res.mapping_ted;
        }
        StatSet ms;
        m_->collect_stats(ms);
        if (ms.get("noc.interference_links") != 0.0)
            r.errors.push_back("tenant_traffic: NoC links shared by "
                               "tenants despite confined routes");
        add_hyp_counts(*hv_, r.counts);
        for (const char* k :
             {"sim.events_executed", "noc.messages", "noc.confined_messages",
              "noc.packets", "noc.interference_links", "mem.dma.transfers",
              "mem.dma.translation_stall", "core.wait_recv",
              "core.vrouter_cycles"})
            r.counts[k] = ms.get(k);
        r.pins["makespan_ticks"] = static_cast<double>(makespan);
        r.pins["msg_p99_ticks"] =
            m_->network().stats().msg_latency.quantile(0.99);
        r.pins["mean_ted"] =
            ted_sum / static_cast<double>(std::max<std::size_t>(
                          runs_.size(), 1));
        r.pins["noc.messages"] = ms.get("noc.messages");
        r.pins["sim.events_executed"] = ms.get("sim.events_executed");
        discard();
        return r;
    }

    void
    discard() override
    {
        // The cores hold pointers into the loaded runs' hooks; release
        // the runs first, the machine last.
        runs_.clear();
        launcher_.reset();
        hv_.reset();
        m_.reset();
    }

  private:
    static constexpr const char* kModels[] = {
        "gpt2-s", "bert", "resnet50", "resnet34", "mobilenet", "resnet18"};
    // Full-length 16-core-wide strips: whichever orientation the exact
    // mapper picks, they always fit (3+3+3+2+2+2 = 15 of 16 rows).
    static constexpr int kStripRows[] = {3, 3, 3, 2, 2, 2};

    SocConfig cfg_;
    std::vector<int> order_;
    std::unique_ptr<runtime::Machine> m_;
    std::unique_ptr<hyp::Hypervisor> hv_;
    std::unique_ptr<runtime::WorkloadLauncher> launcher_;
    std::vector<runtime::LoadedRun> runs_;
};

std::unique_ptr<Workload>
make_workload(const std::string& name, std::uint64_t seed)
{
    if (name == "fleet_frag")
        return std::make_unique<FleetFrag>(seed);
    if (name == "admit_similar")
        return std::make_unique<AdmitSimilar>(seed);
    if (name == "tenant_traffic")
        return std::make_unique<TenantTraffic>(seed);
    return nullptr;
}

// ---- Reporting -------------------------------------------------------

std::string
json_str(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_metrics(const Metrics& m)
{
    std::string out = "{";
    char buf[64];
    for (const auto& [k, v] : m) {
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        out += (out.size() > 1 ? "," : "") + json_str(k) + ":" + buf;
    }
    return out + "}";
}

std::string
json_list(const std::vector<double>& v)
{
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

std::string
cpu_model()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Host fingerprint stamped on every result. */
std::string
host_json()
{
    return "{\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":" + json_str(cpu_model()) +
           ",\"compiler\":" + json_str(__VERSION__) +
           ",\"build_type\":" + json_str(VNPU_BENCH_BUILD_TYPE) +
           ",\"task_pool_workers\":" +
           std::to_string(TaskPool::instance().num_workers()) + "}";
}

double
tv_seconds(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
}

/**
 * The per-layer table of a traced run. Every name is reported on every
 * workload; a layer the workload does not exercise reads 0.
 */
Metrics
layer_metrics(const PassResult& ref, const Metrics& probe,
              double run_s_untraced, double run_s_traced)
{
    Metrics L;
    const auto count = [&](const char* k) {
        const auto it = ref.counts.find(k);
        return it == ref.counts.end() ? 0.0 : it->second;
    };
    const auto pin = [&](const char* k) {
        const auto it = ref.pins.find(k);
        return it == ref.pins.end() ? 0.0 : it->second;
    };
    const auto spans = [&](const char* name, double p) {
        return quantile(g_tracer.durations_us(name), p);
    };

    // Modelled end-to-end results (exact per seed).
    for (const char* k :
         {"wait_p50_ticks", "wait_p99_ticks", "blocked_pct", "util_mean",
          "admit_fail_pct", "mean_ted", "makespan_ticks", "msg_p99_ticks"})
        L[k] = pin(k);

    L["fleet.step_us.p50"] = spans("fleet.step", 0.5);
    L["fleet.step_us.p99"] = spans("fleet.step", 0.99);
    for (const char* k :
         {"fleet.steps", "fleet.defrag.attempts", "fleet.defrag.success",
          "fleet.migrations", "fleet.preemptions", "fleet.queue.depth_mean"})
        L[k] = count(k);

    L["hyp.create_us.p50"] = spans("hyp.create", 0.5);
    L["hyp.create_us.p99"] = spans("hyp.create", 0.99);
    L["hyp.destroy_us.p50"] = spans("hyp.destroy", 0.5);
    const double hits = count("hyp.route_cache.hits");
    const double misses = count("hyp.route_cache.misses");
    L["hyp.route_builds"] = misses;
    L["hyp.route_cache.lookups"] = hits + misses;
    L["hyp.route_cache.hit_ratio"] = ratio(hits, hits + misses);
    L["hyp.mapper.search_steps"] = count("hyp.mapper.search_steps");
    L["hyp.setup_cycles"] = count("hyp.setup_cycles");

    const double cands = count("hyp.funnel.candidates");
    const double memo_hits = count("hyp.funnel.memo_hits");
    const double memo_lookups = memo_hits + count("hyp.funnel.memo_misses");
    L["hyp.funnel.candidates"] = cands;
    L["hyp.funnel.lb_pruned"] = count("hyp.funnel.lb_pruned");
    L["hyp.funnel.memo_hits"] = memo_hits;
    L["hyp.funnel.memo_lookups"] = memo_lookups;
    L["hyp.funnel.ted0_hits"] = count("hyp.funnel.ted0_hits");
    L["hyp.funnel.full_ged"] = count("hyp.funnel.full_ged");
    L["hyp.funnel.memo_hit_ratio"] = ratio(memo_hits, memo_lookups);
    L["hyp.funnel.lb_prune_ratio"] =
        ratio(count("hyp.funnel.lb_pruned"), cands);

    for (const char* b : {"le16", "le64", "le256"}) {
        for (const std::string& k :
             {std::string("noc.route_build_us.p50.") + b,
              std::string("noc.route_build_us.p99.") + b,
              std::string("noc.route_build.regions.") + b,
              std::string("noc.route_build.admits.") + b}) {
            const auto it = probe.find(k);
            L[k] = it == probe.end() ? 0.0 : it->second;
        }
    }
    const auto mix = probe.find("noc.route_build_us.mix_p50");
    L["noc.route_build_us.mix_p50"] = mix == probe.end() ? 0.0 : mix->second;
    // route builds x p50 build time / timed phase: the share of host
    // time the confined-route builds account for.
    L["noc.route_build_share"] = ratio(
        misses * L["noc.route_build_us.mix_p50"] * 1e-6, run_s_untraced);

    const double events = count("sim.events_executed");
    L["sim.events_executed"] = events;
    L["sim.ns_per_event"] =
        events > 0.0 ? run_s_untraced * 1e9 / events : 0.0;
    for (const char* k :
         {"noc.messages", "noc.confined_messages", "noc.packets",
          "noc.interference_links", "mem.dma.transfers",
          "mem.dma.translation_stall", "core.wait_recv",
          "core.vrouter_cycles"})
        L[k] = count(k);

    L["runtime.machine_ctor_ms"] =
        1e-3 * median(g_tracer.durations_us("runtime.machine_ctor"));
    // Per pass: the sum of every tenant's load.
    const std::vector<double> loads = g_tracer.durations_us("runtime.load");
    const std::size_t ctors =
        g_tracer.durations_us("runtime.machine_ctor").size();
    double load_us = 0.0;
    for (double v : loads)
        load_us += v;
    L["runtime.load_ms"] =
        ctors > 0 ? 1e-3 * load_us / static_cast<double>(ctors) : 0.0;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    L["host.user_s"] = tv_seconds(ru.ru_utime);
    L["host.sys_s"] = tv_seconds(ru.ru_stime);
    L["host.minor_faults"] = static_cast<double>(ru.ru_minflt);

    L["obs.run_s.untraced"] = run_s_untraced;
    L["obs.run_s.traced"] = run_s_traced;
    L["obs.trace_overhead_pct"] =
        100.0 * ratio(run_s_traced - run_s_untraced, run_s_untraced);
    return L;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

bool
parse_args(int argc, char** argv, Args& a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::atoi(v) != 0;
        else if (k == "--trace-out")
            a.trace_out = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    if (!parse_args(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: vnpu_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }

    // Set-up is measured in every pass and in extra set-up-only rounds,
    // so setup_s is a median of at least kMinSetups samples. A timed
    // run makes at least three untraced passes, so that best_segments_s
    // has a choice in every segment; `--seconds 0` (pinning) makes one.
    constexpr std::size_t kMinSetups = 15;
    const std::size_t min_passes = a.seconds > 0 ? 3 : 1;
    std::vector<double> setup_s, run_s;
    std::vector<std::vector<double>> laps_untraced, laps_traced;
    std::vector<PassResult> results;
    Metrics probe;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    const Clock::time_point start = Clock::now();

    // --trace 1 alternates untraced and traced passes, so the tracing
    // overhead is a paired comparison on the same host state.
    for (int pass = 0;
         pass == 0 ||
         (errors.empty() && (seconds_since(start) < a.seconds ||
                             laps_untraced.size() < min_passes ||
                             (a.trace && laps_traced.empty())));
         ++pass) {
        const bool traced = a.trace && pass % 2 == 1;
        g_tracer.on = traced;
        PassResult r;
        try {
            const Clock::time_point t0 = Clock::now();
            {
                Scope s("bench.setup", "bench");
                w->setup();
            }
            setup_s.push_back(seconds_since(t0));
            Laps laps;
            laps.start();
            {
                Scope s("bench.run", "bench");
                w->run(laps);
            }
            if (!traced)
                run_s.push_back(std::accumulate(laps.segments().begin(),
                                                laps.segments().end(), 0.0));
            (traced ? laps_traced : laps_untraced).push_back(laps.segments());
            g_tracer.on = false;
            r = w->finish();
            if (traced && probe.empty()) {
                g_tracer.on = true;
                probe = w->probe();
                g_tracer.on = false;
            }
        } catch (const std::exception& e) {
            g_tracer.on = false;
            w->discard();
            r.errors.push_back(std::string("unexpected failure: ") +
                               e.what());
            r.ops = std::max<std::uint64_t>(r.ops, 1);
        }
        attempted += r.ops;
        if (!r.errors.empty()) {
            failed += r.ops;
            errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        } else if (!results.empty() &&
                   (r.pins != results.front().pins ||
                    r.counts != results.front().counts)) {
            failed += r.ops;
            errors.push_back(std::string("pass ") + std::to_string(pass) +
                             (traced ? " (traced)" : "") +
                             " disagrees with pass 0 on a modelled output "
                             "or per-layer count");
        }
        results.push_back(std::move(r));
    }
    while (errors.empty() && setup_s.size() < kMinSetups) {
        const Clock::time_point t0 = Clock::now();
        w->setup();
        setup_s.push_back(seconds_since(t0));
        w->discard();
    }

    const double best_run_s = best_segments_s(laps_untraced);
    const double best_run_s_traced = best_segments_s(laps_traced);
    if (best_run_s < 0.0 || best_run_s_traced < 0.0) {
        failed = attempted;
        errors.push_back("passes disagree on the number of timed segments");
    }

    const PassResult& ref = results.front();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Metrics e2e;
    e2e["setup_s"] = median(setup_s);
    e2e["run_s"] = best_run_s;
    e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::string out = "{\"workload\":" + json_str(a.workload) +
                      ",\"seed\":" + std::to_string(a.seed) +
                      ",\"trace\":" + (a.trace ? "1" : "0") +
                      ",\"passes\":" + std::to_string(results.size()) +
                      ",\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"host\":" + host_json() +
                      ",\"pins\":" + json_metrics(ref.pins) +
                      ",\"e2e\":" + json_metrics(e2e) +
                      ",\"run_s_passes\":" + json_list(run_s) +
                      ",\"setup_s_passes\":" + json_list(setup_s) +
                      ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        out += (i ? "," : "") + json_str(errors[i]);
    out += "]";
    if (a.trace) {
        out += ",\"layers\":" +
               json_metrics(layer_metrics(ref, probe, best_run_s,
                                          best_run_s_traced));
        out += ",\"self_time\":[";
        bool first = true;
        for (const auto& [name, row] : self_times(g_tracer.spans())) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s{\"span\":%s,\"layer\":%s,\"count\":%llu,"
                          "\"total_ms\":%.6f,\"self_ms\":%.6f}",
                          first ? "" : ",", json_str(name).c_str(),
                          json_str(row.layer).c_str(),
                          static_cast<unsigned long long>(row.count),
                          row.total_ms, row.self_ms);
            out += buf;
            first = false;
        }
        out += "]";
        if (!a.trace_out.empty() && !g_tracer.write_chrome(a.trace_out)) {
            std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
            return 1;
        }
    }
    std::printf("%s}\n", out.c_str());
    return 0;
}
