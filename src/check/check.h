/**
 * @file
 * The runtime invariant sanitizer's macro layer.
 *
 * `-DVNPU_SANITIZE=ON` (CMake) compiles continuous invariant checks
 * into the simulation kernel, the NoC, and the hypervisor: per-link
 * occupancy cross-checked against the seed's iterative wormhole model,
 * FIFO-within-tick sequence auditing in the event queue, pairwise
 * CoreSet disjointness across live VMs, confined-route containment,
 * and fleet conservation after every decision pass
 * (docs/static_analysis.md, "VNPU_SANITIZE").
 *
 * When the option is off — every release and default build — the
 * checks compile to *nothing*: the same always-off pattern as
 * VNPU_TRACE, except resolved at compile time rather than behind a
 * runtime branch. `VNPU_INVARIANT`'s condition expression is not even
 * evaluated, so check-only work (snapshots, reference models) must sit
 * inside `VNPU_SANITIZE_BLOCK`/`#if VNPU_SANITIZE_ENABLED` regions.
 *
 * The verification functions themselves (src/check/checks.h) are
 * compiled unconditionally so tests can exercise them in any build;
 * only the call sites inside the simulator are gated.
 */

#ifndef VNPU_CHECK_CHECK_H
#define VNPU_CHECK_CHECK_H

#include <cstdint>
#include <utility>

#include "sim/log.h"

#if defined(VNPU_SANITIZE) && VNPU_SANITIZE
#define VNPU_SANITIZE_ENABLED 1
#else
#define VNPU_SANITIZE_ENABLED 0
#endif

namespace vnpu::check {

/** True in -DVNPU_SANITIZE=ON builds (compile-time constant). */
constexpr bool
sanitize_enabled()
{
    return VNPU_SANITIZE_ENABLED != 0;
}

/**
 * How many times each sanitizer family has run. Only ever incremented
 * from sanitize-enabled call sites, so a sanitize build can assert the
 * checks are actually live (tests/test_invariants.cpp does).
 */
struct CheckCounters {
    std::uint64_t event_queue_events = 0; ///< FIFO-seq audited events.
    std::uint64_t noc_sends = 0;          ///< Cross-checked send walks.
    std::uint64_t route_tables = 0;       ///< Containment-verified tables.
    std::uint64_t vm_partitions = 0;      ///< Disjointness sweeps.
    std::uint64_t fleet_passes = 0;       ///< Conservation-checked passes.
};

CheckCounters& counters();

/** Reset the counters (between test cases). */
void reset_counters();

/**
 * Invariant-violation report: panics (throws SimPanic) with a
 * "sanitize:" prefix so a failing CI job is unambiguous about which
 * layer caught the bug.
 */
template <typename... Args>
[[noreturn]] void
fail(const char* file, int line, const char* what, Args&&... args)
{
    panic("sanitize: ", what, " @ ", file, ":", line, " ",
          std::forward<Args>(args)...);
}

} // namespace vnpu::check

#if VNPU_SANITIZE_ENABLED
/** Check `cond` in sanitize builds; vanishes (unevaluated) otherwise. */
#define VNPU_INVARIANT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond))                                                         \
            ::vnpu::check::fail(__FILE__, __LINE__, #cond, ##__VA_ARGS__);   \
    } while (0)
/** Compile `...` only in sanitize builds (statements, declarations). */
#define VNPU_SANITIZE_BLOCK(...) __VA_ARGS__
#else
#define VNPU_INVARIANT(cond, ...) ((void)0)
#define VNPU_SANITIZE_BLOCK(...)
#endif

#endif // VNPU_CHECK_CHECK_H
