/**
 * @file
 * Fleet-scale serving simulation: an online scheduler that drives N
 * simulated devices through an open-loop arrival stream, with an
 * admission queue, inter-device placement policies, and vNPU
 * migration / defragmentation (docs/fleet.md).
 *
 * The simulator runs on its own `EventQueue`, which is also the sim
 * clock that stamps the hypervisor `admission` spans and `destroy`
 * instants it causes. Arrivals, departures and per-request patience
 * deadlines are events, and each one only queues the tick's single
 * decision pass behind itself: every departure and arrival of tick t
 * precedes t's decision, and their order within the tick does not
 * matter because they touch disjoint state. Requests queue FIFO with
 * head-of-line blocking: the head is placed as soon as any device can
 * host it, optionally after a defragmentation pass migrates small
 * tenants to carve out an exact region; requests whose patience runs
 * out are rejected. Once nothing is queued, live or still to arrive,
 * the pass clears the queue, so the leftover patience wakes of
 * requests decided early cannot move the makespan.
 *
 * Each tenant class's requests (exact, similar, straightforward) are
 * built once, at construction. Every "can this free set host that
 * request?" question, real or hypothetical, is a `TopologyMapper::map`
 * call on one of them: the mapper proves exact grid misses and
 * connected-size misses cheaply, so the scheduler keeps no
 * feasibility logic of its own. Each placement decision is made once:
 * the mapping a placement scan or defrag plan verified is the one the
 * device's hypervisor admits (`Hypervisor::admit`), without mapping
 * again.
 *
 * Determinism contract: the decision sequence is a pure function of
 * (FleetConfig, seed). All randomness flows through named Rng
 * substreams (arrival process, per-device jitter), every container
 * iterated for decisions is ordered, and the mapper layer underneath
 * is worker-count invariant — so BENCH_fleet.json decision columns
 * are bit-identical for any TaskPool worker count.
 */

#ifndef VNPU_FLEET_SCHEDULER_H
#define VNPU_FLEET_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/arrival.h"
#include "fleet/device.h"
#include "hyp/topology_mapper.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace vnpu::fleet {

/** How the scheduler picks a device for the queue head. */
enum class PlacementPolicy : std::uint8_t {
    kFirstFit,     ///< Lowest-id device that can host the request.
    kBestFitTed,   ///< Minimize realized TED, then tightest free count.
    kLoadBalanced, ///< Most free cores (spread load), ties to lowest id.
};

const char* to_string(PlacementPolicy p);

/** Fleet-simulation parameters. */
struct FleetConfig {
    int num_devices = 4;
    /** Per-device SoC (every device is identical). */
    SocConfig device;
    std::uint64_t seed = 1;
    PlacementPolicy policy = PlacementPolicy::kFirstFit;
    ArrivalConfig arrival;
    std::vector<TenantClass> mix = default_tenant_mix();
    /** Stop generating after this many arrivals (trace length caps
     *  kTrace runs regardless). */
    std::uint64_t max_arrivals = 10'000;
    /** Patience: a queued request still waiting this many ticks after
     *  arrival is rejected. */
    Tick queue_timeout = 25'000;
    /** Admission service time: base + uniform jitter in [0, jitter)
     *  drawn from the hosting device's private stream. Admissions
     *  serialize through one fleet scheduler (open-loop queueing). */
    Cycles admit_base_ticks = 200;
    Cycles admit_jitter_ticks = 64;
    /** Step budget per exact-map attempt; keeps a blocked 256-core
     *  head from stalling the event loop on hopeless searches. */
    std::uint64_t exact_search_budget = 20'000;
    /** Exact misses fall back to kSimilarTopology only for requests
     *  this small (candidate enumeration costs ~100 ms per scan on a
     *  fragmented 1024-core mesh, so it is reserved for the small
     *  tenants that benefit most). */
    int similar_fallback_max_cores = 16;
    std::uint64_t similar_max_candidates = 16;
    // ---- Defragmentation / migration -----------------------------------
    bool defrag = true;
    /** Most tenants migrated to admit one blocked request. */
    int max_defrag_victims = 3;
    /** Migration cost model: moving a tenant copies its SPAD-resident
     *  state at this rate (ticks = ceil(cores * spad_bytes_per_core /
     *  rate)); the admitting request waits for the slowest victim. */
    double migration_bytes_per_tick = 65536.0;
    /** Record per-device jitter draws (tests; unbounded memory). */
    bool record_device_jitter = false;
};

/** One scheduling decision, in decision order. */
struct FleetDecision {
    std::uint64_t request_id = 0;
    Tick arrival = 0;
    /** Admission-complete tick (admitted) or rejection tick. */
    Tick decided = 0;
    std::int32_t device = -1; ///< -1 when rejected.
    VmId vm = kNoVm;
    std::int32_t cores = 0;
    double ted = 0.0;
    bool admitted = false;
    /** Tenants migrated to make room for this request. */
    std::uint32_t migrations = 0;
};

/** Fleet-level statistics (device hypervisors keep their own). */
struct FleetStats {
    Counter arrivals;
    Counter admitted;
    Counter rejected;          ///< Patience timeouts.
    Counter admitted_exact;    ///< Placed by the exact strategy.
    Counter admitted_similar;  ///< Placed by the similar fallback.
    Counter defrag_attempts;
    Counter defrag_success;
    Counter migrations;
    Counter migrated_cores;
    Counter preemptions;       ///< Victims requeued (re-place failed).
    Histogram admission_wait;  ///< decided - arrival, admitted only.
    Histogram realized_ted;    ///< Realized TED of admitted requests.
    Histogram migration_ticks; ///< Per-migration state-copy cost.
};

/**
 * The fleet: N devices, one open-loop arrival stream, one online
 * scheduler. Construct, then `run()` (or `step()` until false), then
 * read `decisions()` / `stats()` / `collect_stats()`.
 */
class FleetSimulator {
  public:
    explicit FleetSimulator(const FleetConfig& cfg);
    ~FleetSimulator();

    FleetSimulator(const FleetSimulator&) = delete;
    FleetSimulator& operator=(const FleetSimulator&) = delete;

    /** Run the next event (an arrival, departure, patience deadline or
     *  decision pass); false once every arrival is decided and every
     *  tenant has departed. */
    bool step() { return queue_.step(); }

    /** Run to completion (every generated request decided). */
    void run() { queue_.run(); }

    const FleetConfig& config() const { return cfg_; }
    int num_devices() const { return static_cast<int>(devices_.size()); }
    FleetDevice& device(int i) { return *devices_.at(i); }
    const FleetDevice& device(int i) const { return *devices_.at(i); }

    Tick now() const { return queue_.now(); }
    std::size_t queue_depth() const { return pending_.size(); }
    std::size_t live_tenants() const { return live_.size(); }

    const FleetStats& stats() const { return stats_; }
    const std::vector<FleetDecision>& decisions() const
    {
        return decisions_;
    }

    /** FNV-1a over every decision field, in decision order: the
     *  fingerprint CI diffs across TaskPool worker counts. */
    std::uint64_t decision_hash() const;
    /** decision_hash() folded to 48 bits (exact in a JSON double). */
    std::uint64_t decision_hash48() const;

    /** Live VM regions per device id, in (device, vm) order — input
     *  for check::verify_vm_partition in the fleet invariant tests. */
    std::vector<std::pair<int, VmId>> live_vms() const;

    /** Time-weighted mean fleet utilization over [0, now]. */
    double utilization_mean() const;
    /** Peak instantaneous fleet utilization. */
    double utilization_peak() const;
    /** Time-weighted mean queue depth over [0, now]. */
    double queue_depth_mean() const;
    std::size_t queue_depth_peak() const { return queue_peak_; }

    /** Fleet-level gauges and counters under `prefix`. */
    void collect_stats(StatSet& out,
                       const std::string& prefix = "fleet.") const;

    /** Jitter draws of device `i`, oldest first (only recorded under
     *  FleetConfig::record_device_jitter). */
    const std::vector<Cycles>& device_jitter_log(int i) const
    {
        return jitter_log_.at(i);
    }

  private:
    /** One queued request; `requeued` marks a preempted tenant going
     *  around again (its original decision is already recorded). */
    struct Queued {
        FleetRequest req;
        bool requeued = false;
    };

    /** A live (admitted) tenant. */
    struct Tenant {
        std::uint64_t request_id = 0;
        int tenant_class = 0;
        int width = 1;
        int height = 1;
        int device = -1;
        VmId vm = kNoVm;
        Tick expiry = 0;
    };

    /** Outcome of a placement scan (no fleet state mutated): the
     *  device, the request and the mapping verified on its live free
     *  set, which the device's hypervisor then admits as is. */
    struct Placement {
        int device = -1;
        const hyp::MappingRequest* req = nullptr;
        hyp::MappingResult m; ///< `m.ok` false: no device fits.
    };

    /** One planned victim move of a defrag pass. */
    struct VictimMove {
        std::uint64_t request_id = 0;
        Placement to;
    };

    /** A defrag plan for the queue head; `head.m.ok` when verified. */
    struct DefragPlan {
        Placement head; ///< Where the head request will land.
        std::vector<VictimMove> moves;
    };

    /** Result of executing a defrag plan. */
    struct DefragExec {
        virt::VirtualNpu* head_vm = nullptr; ///< Pre-created head VM.
        Tick wait = 0; ///< Slowest migration's state-copy cost.
    };

    /** A tenant class's mapping requests, built once. */
    struct ClassRequests {
        hyp::MappingRequest exact;
        hyp::MappingRequest similar; ///< Small-request fallback.
        hyp::MappingRequest straightforward; ///< Defrag last resort.
    };
    const ClassRequests& requests_of(int tenant_class) const;

    /** Defrag victim order: fewest cores first, ties to lowest id. */
    static bool smaller_first(const Tenant* a, const Tenant* b);
    /** Make `ten` live and list it among its device's residents. */
    void add_live(const Tenant& ten);
    /** Drop a live tenant and its resident-list entry. */
    void erase_live(std::map<std::uint64_t, Tenant>::iterator it);

    /** Advance the utilization / queue-depth integrals to now(). */
    void advance_integrals();
    void note_used_delta(int delta_cores);

    // ---- Events (each runs at now()) -----------------------------------
    /** Queue `r` and every later request arriving this same tick. */
    void arrive(FleetRequest r);
    /** Tenant `request_id` leaves, unless it was preempted since. */
    void depart(std::uint64_t request_id, Tick expiry);
    /** Queue this tick's decision pass, once. */
    void schedule_pass();
    /** The decision pass: reject expired requests, place the queue. */
    void decide();

    bool more_arrivals() const
    {
        return arrivals_.generated() < cfg_.max_arrivals &&
               !arrivals_.exhausted();
    }
    /** Append `q` to the queue and wake a pass at its deadline. */
    void enqueue(const Queued& q);
    void expire_timeouts(Tick t);
    void drain_queue(Tick t);

    /** Dry-run scan: can any device host `r` right now, and which one
     *  does the policy pick? Exact first, then the similar fallback. */
    Placement place(const FleetRequest& r) const;
    /** One scan of every device for `req`, best by the policy. */
    Placement pick(const hyp::MappingRequest& req) const;

    /** Book an admission: `vm` was just admitted on `p.device` (by the
     *  plain path or mid-defrag); records the decision and schedules
     *  the departure. */
    void admit(Tick t, const Queued& q, const Placement& p,
               virt::VirtualNpu& vm, Tick migration_wait,
               std::uint32_t migrations);
    void reject(Tick t, const Queued& q);

    DefragPlan plan_defrag(const FleetRequest& r) const;
    /** Execute a verified plan: destroy the movers, admit the head
     *  request's mapping in the hole, admit the movers' mappings. */
    DefragExec execute_defrag(Tick t, const DefragPlan& plan);

    Tick migration_cost(int cores) const;
    void record_decision(const FleetDecision& d);

    FleetConfig cfg_;
    ArrivalProcess arrivals_;
    std::vector<std::unique_ptr<FleetDevice>> devices_;

    /** The fleet's clock and event loop. */
    EventQueue queue_;
    bool pass_scheduled_ = false; ///< A decision pass is queued at now().
    std::deque<Queued> pending_;
    std::map<std::uint64_t, Tenant> live_; ///< By request id.
    /** Per device id, its live tenants smallest first (cores, then
     *  request id): the defrag victim order. Points into `live_`. */
    std::vector<std::vector<const Tenant*>> residents_;
    std::vector<ClassRequests> class_req_; ///< By tenant class.

    /** The serial admission scheduler frees up at this tick. */
    Tick sched_free_at_ = 0;
    static constexpr std::uint64_t kNoHead = ~std::uint64_t{0};
    /** Head-of-line retry damping: skip re-placing a blocked head
     *  until capacity changed (departure / migration) or the head
     *  itself changed. */
    std::uint64_t blocked_head_ = kNoHead;
    bool capacity_dirty_ = true;

    // ---- SLO accounting --------------------------------------------------
    FleetStats stats_;
    std::vector<FleetDecision> decisions_;
    int used_cores_ = 0;
    int total_cores_ = 0;
    double used_core_ticks_ = 0.0;   ///< Integral of used_cores_ dt.
    double queue_depth_ticks_ = 0.0; ///< Integral of queue depth dt.
    Tick last_integral_t_ = 0;
    int used_peak_ = 0;
    std::size_t queue_peak_ = 0;

    std::vector<std::vector<Cycles>> jitter_log_;
};

} // namespace vnpu::fleet

#endif // VNPU_FLEET_SCHEDULER_H
