/**
 * @file
 * A TraceSink for tests that keeps every event it is sent, with the
 * string args copied (emitters only guarantee them for the call).
 */

#ifndef VNPU_TESTS_CAPTURE_SINK_H
#define VNPU_TESTS_CAPTURE_SINK_H

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace vnpu::testutil {

/** One captured trace event; numeric args are widened to double. */
struct CapturedEvent {
    std::string name;
    std::string cat;
    char ph = 0;
    Tick ts = 0;
    Tick dur = 0;
    std::map<std::string, double> num;
    std::map<std::string, std::string> str;
};

class CaptureSink final : public obs::TraceSink {
  public:
    void
    event(const obs::TraceEvent& ev) override
    {
        CapturedEvent c{ev.name, ev.cat, ev.ph, ev.ts, ev.dur, {}, {}};
        for (int i = 0; i < ev.num_args; ++i) {
            const obs::TraceArg& a = ev.args[i];
            switch (a.kind) {
              case obs::TraceArg::Kind::kU64:
                c.num[a.key] = static_cast<double>(a.u);
                break;
              case obs::TraceArg::Kind::kI64:
                c.num[a.key] = static_cast<double>(a.i);
                break;
              case obs::TraceArg::Kind::kF64: c.num[a.key] = a.f; break;
              case obs::TraceArg::Kind::kStr:
                c.str[a.key] = a.s != nullptr ? a.s : "";
                break;
            }
        }
        events.push_back(std::move(c));
    }

    /** Every captured event called `name`, in emission order. */
    std::vector<CapturedEvent>
    named(const std::string& name) const
    {
        std::vector<CapturedEvent> out;
        for (const CapturedEvent& e : events)
            if (e.name == name)
                out.push_back(e);
        return out;
    }

    std::vector<CapturedEvent> events;
};

/** Installs a sink for one scope; restores the no-sink state even
 *  when a test fails mid-way. */
struct SinkGuard {
    explicit SinkGuard(obs::TraceSink* sink) { obs::set_sink(sink); }
    ~SinkGuard() { obs::set_sink(nullptr); }
    SinkGuard(const SinkGuard&) = delete;
    SinkGuard& operator=(const SinkGuard&) = delete;
};

} // namespace vnpu::testutil

#endif // VNPU_TESTS_CAPTURE_SINK_H
