/**
 * @file
 * Allocation / fragmentation sweep on DCRA-scale chips — the territory
 * the 64-bit `CoreMask` could not represent. For 16x16 (256-core) and
 * 32x32 (1024-core) meshes, a churn of create/destroy requests runs
 * under each policy:
 *
 *  - exact:    topology lock-in; requests fail once no isomorphic
 *              region survives fragmentation.
 *  - similar:  the paper's similar-topology mapping (with fragmented
 *              fallback) keeps allocating into the holes.
 *  - MIG:      fixed halves; oversized requests TDM, small ones waste.
 *
 * Reports per policy: admitted requests, failure count, peak core
 * utilization, mean TED of admitted mappings, and mapper/hypervisor
 * setup time, as a printf table plus BENCH_sweep_alloc_scale.json.
 */

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "hyp/hypervisor.h"
#include "hyp/mig.h"
#include "runtime/machine.h"
#include "sim/log.h"
#include "sim/rng.h"

using namespace vnpu;
using hyp::MappingStrategy;
using runtime::Machine;

namespace {

struct SweepResult {
    int admitted = 0;
    int failed = 0;
    double peak_util = 0.0;
    double ted_sum = 0.0;
    /** Simulated meta-table setup cost (deterministic, unlike wall
     *  clock, so harness output stays byte-identical across runs). */
    Cycles setup_cycles = 0;
    /** Wall-clock admission latency (create/destroy calls), in
     *  microseconds per admitted request — the one machine-dependent
     *  column, gated in CI by tools/bench_trajectory.py gate. */
    double us_per_admit = 0.0;
    // Funnel stage counters (vNPU policies only; zero for MIG).
    std::uint64_t fn_candidates = 0;
    std::uint64_t fn_lb_pruned = 0;
    std::uint64_t fn_memo_hits = 0;
    std::uint64_t fn_full_ged = 0;
};

SocConfig
mesh_cfg(int side)
{
    SocConfig c = SocConfig::Sim();
    c.mesh_x = side;
    c.mesh_y = side;
    c.hbm_channels = std::min(side, 64);
    return c;
}

/** Deterministic request-size schedule: mixes small and large tenants. */
std::vector<int>
request_sizes(int side, int rounds)
{
    Rng rng(0x5ca1e + static_cast<std::uint64_t>(side));
    std::vector<int> sizes;
    for (int i = 0; i < rounds; ++i)
        sizes.push_back(8 + static_cast<int>(rng.next_below(41))); // 8..48
    return sizes;
}

SweepResult
sweep_vnpu(int side, MappingStrategy strat, const std::vector<int>& sizes)
{
    Machine m(mesh_cfg(side));
    hyp::Hypervisor hv(m.config(), m.topology(), m.controller());
    SweepResult r;
    std::vector<VmId> live;
    Rng rng(7);
    const auto wall_start = std::chrono::steady_clock::now();
    for (int size : sizes) {
        // Churn: every third request, retire the oldest tenant first.
        if (live.size() >= 3 && rng.next_below(3) == 0) {
            hv.destroy(live.front());
            live.erase(live.begin());
        }
        hyp::VnpuSpec spec;
        spec.num_cores = size;
        spec.strategy = strat;
        spec.max_candidates = 64;
        // On failure, retire the oldest tenant and retry once — the
        // admission-control loop a serving frontend would run.
        for (int attempt = 0; attempt < 2; ++attempt) {
            try {
                virt::VirtualNpu& v = hv.create(spec);
                live.push_back(v.vm());
                ++r.admitted;
                r.ted_sum += v.mapping_ted();
                break;
            } catch (const SimFatal&) {
                if (attempt == 1 || live.empty()) {
                    ++r.failed;
                    break;
                }
                hv.destroy(live.front());
                live.erase(live.begin());
            }
        }
        r.peak_util = std::max(r.peak_util, hv.core_utilization());
    }
    const auto wall_end = std::chrono::steady_clock::now();
    if (r.admitted > 0)
        r.us_per_admit =
            std::chrono::duration<double, std::micro>(wall_end -
                                                      wall_start)
                .count() /
            r.admitted;
    // Read the totals through the uniform telemetry sweep rather than
    // hand-copying HypervisorStats fields; the counter values are
    // integers far below 2^53, so the double round-trip is exact.
    StatSet st;
    hv.collect_stats(st);
    r.setup_cycles = static_cast<Cycles>(st.get("hyp.setup_cycles", 0.0));
    r.fn_candidates =
        static_cast<std::uint64_t>(st.get("hyp.funnel.candidates", 0.0));
    r.fn_lb_pruned =
        static_cast<std::uint64_t>(st.get("hyp.funnel.lb_pruned", 0.0));
    r.fn_memo_hits =
        static_cast<std::uint64_t>(st.get("hyp.funnel.memo_hits", 0.0));
    r.fn_full_ged =
        static_cast<std::uint64_t>(st.get("hyp.funnel.full_ged", 0.0));
    return r;
}

SweepResult
sweep_mig(int side, const std::vector<int>& sizes)
{
    Machine m(mesh_cfg(side));
    hyp::MigPartitioner mig(m.config(), m.topology(), m.controller());
    SweepResult r;
    std::vector<VmId> live;
    Rng rng(7);
    int total = side * side;
    for (int size : sizes) {
        if (live.size() >= 3 && rng.next_below(3) == 0) {
            mig.destroy(live.front());
            live.erase(live.begin());
        }
        for (int attempt = 0; attempt < 2; ++attempt) {
            try {
                virt::VirtualNpu& v = mig.create(size, 0);
                live.push_back(v.vm());
                ++r.admitted;
                break;
            } catch (const SimFatal&) {
                if (attempt == 1 || live.empty()) {
                    ++r.failed;
                    break;
                }
                mig.destroy(live.front());
                live.erase(live.begin());
            }
        }
        int used = 0;
        for (const hyp::MigPartition& p : mig.partitions())
            used += p.in_use ? p.num_cores() : 0;
        r.peak_util = std::max(r.peak_util,
                               static_cast<double>(used) / total);
    }
    r.setup_cycles = mig.setup_cycles();
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::TraceSession trace_session(argc, argv);
    bench::MetricsSession metrics_session(argc, argv);
    bench::ProfileSession profile_session(argc, argv);
    bench::banner("Scale sweep",
                  "Allocation/fragmentation churn on 256- and 1024-core "
                  "meshes (exact vs similar vs MIG)");
    bench::JsonReport report("sweep_alloc_scale");

    const int rounds = 24;
    for (int side : {16, 32}) {
        std::vector<int> sizes = request_sizes(side, rounds);
        std::printf("\n%dx%d mesh (%d cores), %d requests\n", side, side,
                    side * side, rounds);
        bench::Table table(report,
                           std::to_string(side) + "x" +
                               std::to_string(side),
                           {"policy", "admitted", "failed", "peak util",
                            "mean TED", "setup(clk)", "us/admit",
                            "cands", "lb_pruned", "memo_hit",
                            "full_ged"},
                           12);
        struct Row {
            const char* policy;
            SweepResult res;
        };
        std::vector<Row> rows{
            {"exact", sweep_vnpu(side, MappingStrategy::kExact, sizes)},
            {"similar",
             sweep_vnpu(side, MappingStrategy::kSimilarTopology, sizes)},
            {"fragmented",
             sweep_vnpu(side, MappingStrategy::kFragmented, sizes)},
            {"mig", sweep_mig(side, sizes)},
        };
        for (const Row& row : rows) {
            const SweepResult& r = row.res;
            double mean_ted =
                r.admitted > 0 ? r.ted_sum / r.admitted : 0.0;
            table.row({row.policy, bench::fmt_u(r.admitted),
                       bench::fmt_u(r.failed), bench::fmt(r.peak_util, 2),
                       bench::fmt(mean_ted, 1),
                       bench::fmt_u(r.setup_cycles),
                       bench::fmt(r.us_per_admit, 1),
                       bench::fmt_u(r.fn_candidates),
                       bench::fmt_u(r.fn_lb_pruned),
                       bench::fmt_u(r.fn_memo_hits),
                       bench::fmt_u(r.fn_full_ged)});
        }
    }
    std::printf("\nexact admits fewest (topology lock-in grows with the "
                "mesh); similar keeps utilization high with bounded TED; "
                "MIG wastes whole partitions.\n");
    report.write();
    return 0;
}
