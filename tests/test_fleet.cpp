/**
 * @file
 * Tests for the fleet-scale serving layer: arrival processes, per-device
 * Rng substream isolation, scheduler determinism, the event loop and
 * the sim clock it gives admission spans, defragmentation payoff, and
 * migration invariants (partition disjointness + confined route
 * containment after every remap).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "capture_sink.h"
#include "check/checks.h"
#include "fleet/arrival.h"
#include "fleet/scheduler.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace vnpu::fleet {
namespace {

/** A 16x16-core device: big enough to fragment, fast enough to churn
 *  thousands of admissions through in a unit test. */
SocConfig
small_device()
{
    SocConfig c = SocConfig::Sim();
    c.mesh_x = 16;
    c.mesh_y = 16;
    c.hbm_channels = 16;
    // Confined-route tables scale with region^2; the 8x8 class below
    // needs more than the 16 KiB default (docs/fleet.md).
    c.meta_zone_bytes = 64 * 1024;
    return c;
}

/** Mix spanning 4..64 cores so large tenants get fragmentation-blocked
 *  while small ones keep churning the free sets. */
std::vector<TenantClass>
small_mix()
{
    return {
        {"mobilenet", 2, 2, 0.40, 30'000},
        {"resnet50", 4, 4, 0.30, 40'000},
        {"bert", 8, 4, 0.20, 50'000},
        {"gpt2-s", 8, 8, 0.10, 60'000},
    };
}

FleetConfig
small_fleet(std::uint64_t seed, bool defrag, Tick mean_gap = 1100)
{
    FleetConfig cfg;
    cfg.num_devices = 4;
    cfg.device = small_device();
    cfg.seed = seed;
    cfg.mix = small_mix();
    cfg.arrival.mean_gap = mean_gap;
    cfg.max_arrivals = 2'000;
    cfg.defrag = defrag;
    return cfg;
}

// ---- Arrival process -----------------------------------------------------

TEST(ArrivalTest, PoissonIsDeterministicAndMonotonic)
{
    ArrivalConfig cfg;
    cfg.mean_gap = 500;
    ArrivalProcess a(cfg, 7), b(cfg, 7);
    Tick prev = 0;
    for (int i = 0; i < 500; ++i) {
        const FleetRequest ra = a.next();
        const FleetRequest rb = b.next();
        EXPECT_EQ(ra.id, static_cast<std::uint64_t>(i));
        EXPECT_EQ(ra.arrival, rb.arrival);
        EXPECT_EQ(ra.width, rb.width);
        EXPECT_EQ(ra.height, rb.height);
        EXPECT_EQ(ra.lifetime, rb.lifetime);
        EXPECT_GE(ra.arrival, prev);
        EXPECT_GE(ra.lifetime, 1);
        prev = ra.arrival;
    }
    // A different seed reshuffles the stream.
    ArrivalProcess c(cfg, 8);
    bool any_diff = false;
    ArrivalProcess a2(cfg, 7);
    for (int i = 0; i < 50 && !any_diff; ++i)
        any_diff = c.next().arrival != a2.next().arrival;
    EXPECT_TRUE(any_diff);
}

TEST(ArrivalTest, RejectsBrokenConfigs)
{
    ArrivalConfig ok;
    EXPECT_THROW(ArrivalProcess(ok, 1, {{"no-such-model", 2, 2, 1.0, 10}}),
                 SimFatal);
    EXPECT_THROW(ArrivalProcess(ok, 1, std::vector<TenantClass>{}),
                 SimFatal);
}

// ---- Per-device Rng substreams -------------------------------------------

TEST(RngTest, SubstreamsAreDecorrelated)
{
    std::set<std::uint64_t> first;
    for (std::uint64_t id = 0; id < 64; ++id)
        first.insert(Rng::substream(42, id).next());
    EXPECT_EQ(first.size(), 64u); // no two substreams collide up front
    // The substream family is also distinct from the master stream.
    EXPECT_FALSE(first.count(Rng(42).next()));
}

TEST(FleetTest, DeviceStreamInvariantToFleetSize)
{
    // A device's private decision stream must not depend on how many
    // siblings share the fleet: device 0 of a 1-device fleet and
    // device 0 of a 4-device fleet draw the same jitter sequence, each
    // a prefix of the reference substream. Seeding all devices from
    // one shared Rng would interleave draws and break this. With
    // defrag off no admission waits on a migration, so each
    // `fleet.admit` span lasts the base service time plus its draw.
    const std::uint64_t seed = 99;
    std::vector<std::vector<Cycles>> logs;
    for (int fleet_size : {1, 4}) {
        FleetConfig cfg = small_fleet(seed, false);
        cfg.num_devices = fleet_size;
        cfg.max_arrivals = 400;
        testutil::CaptureSink sink;
        {
            testutil::SinkGuard guard(&sink);
            FleetSimulator sim(cfg);
            sim.run();
        }
        std::vector<Cycles> log;
        for (const testutil::CapturedEvent& span : sink.named("fleet.admit"))
            if (span.num.at("dev") == 0.0)
                log.push_back(span.dur - FleetSimulator::kAdmitBaseTicks);
        ASSERT_FALSE(log.empty());
        logs.push_back(std::move(log));
    }

    Rng ref = Rng::substream(seed, 0);
    std::vector<Cycles> expected;
    const std::size_t need =
        std::max(logs[0].size(), logs[1].size());
    for (std::size_t i = 0; i < need; ++i)
        expected.push_back(ref.next_below(FleetSimulator::kAdmitJitterTicks));

    for (const std::vector<Cycles>& log : logs)
        for (std::size_t i = 0; i < log.size(); ++i)
            EXPECT_EQ(log[i], expected[i]) << "draw " << i;
}

// ---- Scheduler determinism and SLO accounting ----------------------------

TEST(FleetTest, RunToRunDecisionIdentity)
{
    const FleetConfig cfg = small_fleet(11, true);
    FleetSimulator a(cfg), b(cfg);
    a.run();
    b.run();
    ASSERT_EQ(a.decisions().size(), b.decisions().size());
    EXPECT_EQ(a.decision_hash(), b.decision_hash());
    EXPECT_EQ(a.decision_hash48(), b.decision_hash48());
    EXPECT_LT(a.decision_hash48(), std::uint64_t{1} << 48);

    // Every generated request is decided exactly once.
    EXPECT_EQ(a.decisions().size(), a.stats().arrivals.value());
    EXPECT_EQ(a.stats().admitted.value() + a.stats().rejected.value(),
              a.stats().arrivals.value());
    std::set<std::uint64_t> ids;
    for (const FleetDecision& d : a.decisions())
        ids.insert(d.request_id);
    EXPECT_EQ(ids.size(), a.decisions().size());

    FleetConfig other = cfg;
    other.seed = 12;
    FleetSimulator c(other);
    c.run();
    EXPECT_NE(a.decision_hash(), c.decision_hash());
}

TEST(FleetTest, StepLoopMatchesRun)
{
    // step() runs one event and run() drains the queue; both must
    // reach the same decisions, makespan and time integrals.
    FleetConfig cfg = small_fleet(23, true);
    cfg.max_arrivals = 600;
    FleetSimulator stepped(cfg), ran(cfg);
    while (stepped.step()) {
    }
    ran.run();
    EXPECT_GT(ran.now(), 0u);
    EXPECT_EQ(stepped.decision_hash(), ran.decision_hash());
    EXPECT_EQ(stepped.now(), ran.now());
    EXPECT_EQ(stepped.utilization_mean(), ran.utilization_mean());
    EXPECT_EQ(stepped.queue_depth_mean(), ran.queue_depth_mean());
    EXPECT_EQ(stepped.queue_depth_peak(), ran.queue_depth_peak());
    EXPECT_FALSE(ran.step());
}

TEST(FleetTest, AdmissionSpansCarryFleetTicks)
{
    // The fleet's queue is the sim clock of the hypervisors under it:
    // each admission span lies in [arrival, decided] of its decision,
    // and each destroy sits at the tenant's departure tick. One device
    // keeps VM ids unique; no defrag keeps every destroy a departure.
    // Lifetimes well under the patience window leave the last requests'
    // patience wakes pending after the last departure.
    FleetConfig cfg = small_fleet(17, false, 300);
    cfg.num_devices = 1;
    cfg.mix = {{"mobilenet", 2, 2, 0.6, 3'000}, {"resnet50", 4, 4, 0.4, 8'000}};
    cfg.max_arrivals = 300;
    testutil::CaptureSink sink;
    std::vector<FleetDecision> decisions;
    Tick makespan = 0;
    {
        testutil::SinkGuard guard(&sink);
        FleetSimulator sim(cfg);
        sim.run();
        decisions = sim.decisions();
        makespan = sim.now();
    }

    // Lifetimes from an independent replay of the arrival stream.
    ArrivalProcess replay(cfg.arrival, cfg.seed, cfg.mix);
    std::vector<Tick> lifetime;
    for (std::uint64_t i = 0; i < cfg.max_arrivals; ++i)
        lifetime.push_back(replay.next().lifetime);

    std::map<VmId, FleetDecision> by_vm;
    for (const FleetDecision& d : decisions)
        if (d.admitted)
            by_vm[d.vm] = d;
    ASSERT_GT(by_vm.size(), 10u);

    const std::vector<testutil::CapturedEvent> spans =
        sink.named("admission");
    EXPECT_EQ(spans.size(), by_vm.size());
    for (const testutil::CapturedEvent& span : spans) {
        EXPECT_EQ(span.num.at("ok"), 1.0);
        const auto it = by_vm.find(static_cast<VmId>(span.num.at("vm")));
        ASSERT_NE(it, by_vm.end());
        EXPECT_GE(span.ts, it->second.arrival) << "vm " << it->first;
        EXPECT_LE(span.ts, it->second.decided) << "vm " << it->first;
    }

    // The makespan is the last departure or rejection: leftover
    // patience wakes of requests admitted early must not extend it.
    Tick last_event = 0;
    const std::vector<testutil::CapturedEvent> destroys =
        sink.named("destroy");
    EXPECT_EQ(destroys.size(), by_vm.size());
    for (const testutil::CapturedEvent& ev : destroys) {
        const auto it = by_vm.find(static_cast<VmId>(ev.num.at("vm")));
        ASSERT_NE(it, by_vm.end());
        EXPECT_EQ(ev.ts, it->second.decided +
                             lifetime.at(it->second.request_id))
            << "vm " << it->first;
        last_event = std::max(last_event, ev.ts);
    }
    for (const FleetDecision& d : decisions)
        if (!d.admitted)
            last_event = std::max(last_event, d.decided);
    EXPECT_EQ(makespan, last_event);
}

TEST(FleetTest, SloAccountingIsSane)
{
    FleetSimulator sim(small_fleet(5, true));
    sim.run();
    const FleetStats& st = sim.stats();
    EXPECT_GT(st.admitted.value(), 0u);
    EXPECT_GE(st.admission_wait.quantile(0.99),
              st.admission_wait.quantile(0.5));
    EXPECT_GE(sim.utilization_mean(), 0.0);
    EXPECT_LE(sim.utilization_mean(), 1.0);
    EXPECT_GE(sim.utilization_peak(), sim.utilization_mean());
    EXPECT_LE(sim.utilization_peak(), 1.0);
    EXPECT_GE(sim.queue_depth_mean(), 0.0);
    EXPECT_GE(static_cast<double>(sim.queue_depth_peak()),
              sim.queue_depth_mean());
    // Nothing is left in flight once run() returns.
    EXPECT_EQ(sim.queue_depth(), 0u);

    StatSet out;
    sim.collect_stats(out);
    EXPECT_EQ(out.get("fleet.arrivals", -1),
              static_cast<double>(st.arrivals.value()));
    EXPECT_TRUE(out.has("fleet.util.mean"));
    EXPECT_TRUE(out.has("fleet.queue.depth_peak"));
    EXPECT_TRUE(out.has("fleet.wait.p99"));
    EXPECT_TRUE(out.has("fleet.migrations"));
}

TEST(FleetTest, DefragReducesBlockedRate)
{
    // At a fragmentation-bound load, migrating small tenants out of
    // the way admits large requests that would otherwise time out.
    FleetSimulator off(small_fleet(21, false));
    FleetSimulator on(small_fleet(21, true));
    off.run();
    on.run();
    EXPECT_EQ(off.stats().migrations.value(), 0u);
    EXPECT_GT(on.stats().migrations.value(), 0u);
    EXPECT_GT(on.stats().defrag_success.value(), 0u);
    EXPECT_LT(on.stats().rejected.value(), off.stats().rejected.value());
}

// ---- Migration invariants ------------------------------------------------

/** Partition + confined-route invariants on every device, from fleet
 *  bookkeeping down to hypervisor state. Panics (SimPanic) on any
 *  violation, so simply calling it is the assertion. */
void
verify_fleet_invariants(const FleetSimulator& sim)
{
    std::map<int, std::vector<CoreSet>> regions;
    for (const auto& [dev, vm] : sim.live_vms()) {
        const virt::VirtualNpu* v =
            sim.device(dev).hypervisor().find(vm);
        ASSERT_NE(v, nullptr);
        regions[dev].push_back(v->mask());
        if (const noc::RouteOverride* r = v->confined_routes())
            check::verify_confined_route(sim.device(dev).topology(),
                                         v->mask(), *r);
    }
    for (int d = 0; d < sim.num_devices(); ++d)
        check::verify_vm_partition(
            sim.device(d).hypervisor().free_cores(), regions[d],
            sim.device(d).num_cores());
}

TEST(FleetTest, MigrationPreservesPartitionAndRouteInvariants)
{
    FleetConfig cfg = small_fleet(31, true, 900); // saturated: migrate lots
    cfg.max_arrivals = 1'200;
    FleetSimulator sim(cfg);
    std::uint64_t steps = 0;
    std::uint64_t last_migrations = 0;
    while (sim.step()) {
        ++steps;
        const std::uint64_t m = sim.stats().migrations.value();
        // Verify after every step that migrated something, plus a
        // periodic sweep so plain admissions stay covered too.
        if (m != last_migrations || steps % 256 == 0) {
            last_migrations = m;
            verify_fleet_invariants(sim);
        }
    }
    verify_fleet_invariants(sim);
    // The config must actually exercise the migration path.
    EXPECT_GT(sim.stats().migrations.value(), 0u);
    EXPECT_GT(sim.stats().defrag_success.value(), 0u);
}

TEST(FleetTest, ClassFitIsTheMappersVerdict)
{
    // A class fits iff the exact mapper admits it on an empty device,
    // in either orientation: 8x2 lands transposed on a 4x8 device.
    FleetConfig cfg;
    cfg.num_devices = 1;
    cfg.device = SocConfig::Sim();
    cfg.device.mesh_x = 4;
    cfg.device.mesh_y = 8;
    cfg.mix = {{"mobilenet", 8, 2, 1.0, 20'000}};
    cfg.arrival.mean_gap = 5'000;
    cfg.max_arrivals = 20;
    FleetSimulator sim(cfg);
    sim.run();
    EXPECT_GT(sim.stats().admitted.value(), 0u);
    for (const FleetDecision& d : sim.decisions()) {
        if (d.admitted) {
            EXPECT_EQ(d.ted, 0.0); // exact, not the similar fallback
        }
    }

    // No 5x5 block fits 4 columns in either orientation.
    cfg.mix = {{"mobilenet", 5, 5, 1.0, 20'000}};
    EXPECT_THROW(FleetSimulator{cfg}, SimFatal);
}

} // namespace
} // namespace vnpu::fleet
