#include "fleet/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "check/check.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/log.h"

namespace vnpu::fleet {

namespace {

/** FNV-1a fold of raw bytes (decision fingerprinting). */
std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a_u64(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(h, &v, sizeof v);
}

} // namespace

const char*
to_string(PlacementPolicy p)
{
    switch (p) {
      case PlacementPolicy::kFirstFit: return "first-fit";
      case PlacementPolicy::kBestFitTed: return "best-fit-ted";
      case PlacementPolicy::kLoadBalanced: return "load-balanced";
    }
    return "?";
}

FleetSimulator::FleetSimulator(const FleetConfig& cfg)
    : cfg_(cfg), arrivals_(cfg.arrival, cfg.seed, cfg.mix)
{
    if (cfg_.num_devices <= 0)
        fatal("fleet needs at least one device");
    if (cfg_.max_defrag_victims < 1)
        fatal("max_defrag_victims must be >= 1");
    if (cfg_.migration_bytes_per_tick <= 0.0)
        fatal("migration_bytes_per_tick must be positive");
    devices_.reserve(static_cast<std::size_t>(cfg_.num_devices));
    for (int i = 0; i < cfg_.num_devices; ++i) {
        devices_.push_back(
            std::make_unique<FleetDevice>(i, cfg_.device, cfg_.seed));
        total_cores_ += devices_.back()->num_cores();
    }
    residents_.resize(devices_.size());
    // Every class's requests are built here, once; a class fits iff the
    // mapper admits it exactly on an empty device.
    const auto request = [this](const TenantClass& c,
                                hyp::MappingStrategy s) {
        hyp::VnpuSpec spec;
        spec.topo = graph::Graph::mesh(c.width, c.height);
        spec.strategy = s;
        spec.noc_isolation = s != hyp::MappingStrategy::kStraightforward;
        spec.max_candidates = cfg_.similar_max_candidates;
        spec.exact_search_budget = cfg_.exact_search_budget;
        return hyp::request_for(spec);
    };
    for (const TenantClass& c : arrivals_.mix()) {
        class_req_.push_back(
            {request(c, hyp::MappingStrategy::kExact),
             request(c, hyp::MappingStrategy::kSimilarTopology),
             request(c, hyp::MappingStrategy::kStraightforward)});
        const hyp::MappingResult m =
            devices_.front()->hypervisor().try_map(class_req_.back().exact);
        if (!m.ok)
            fatal("tenant class '", c.model, "' (", c.width, "x", c.height,
                  ") does not fit a ", cfg_.device.mesh_x, "x",
                  cfg_.device.mesh_y, " device: ", m.error);
    }
    jitter_log_.resize(devices_.size());
    if (more_arrivals()) {
        const FleetRequest r = arrivals_.next();
        queue_.schedule(r.arrival, [this, r] { arrive(r); });
    }

    // Ride an installed metrics sampler: the fleet is the "machine"
    // (it owns simulated time); the device hypervisors registered
    // themselves as extra collectors under their fleet.devN prefixes.
    if (auto* m = obs::metrics()) {
        m->attach_machine(
            this, [this](StatSet& out) { collect_stats(out); },
            [](std::vector<obs::LinkRecord>&) {},
            [this] { return stats_.admission_wait; });
    }
    // The fleet owns simulated time: its queue stamps the admission
    // spans and destroy instants of the device hypervisors.
    obs::set_sim_clock(&queue_);
}

FleetSimulator::~FleetSimulator()
{
    if (auto* m = obs::metrics())
        m->detach_machine(this, now());
    obs::clear_sim_clock(&queue_);
}

// ---- Time integrals ------------------------------------------------------

void
FleetSimulator::advance_integrals()
{
    const Tick t = now();
    if (t <= last_integral_t_)
        return;
    const double dt = static_cast<double>(t - last_integral_t_);
    used_core_ticks_ += dt * used_cores_;
    queue_depth_ticks_ += dt * static_cast<double>(pending_.size());
    last_integral_t_ = t;
}

void
FleetSimulator::note_used_delta(int delta_cores)
{
    used_cores_ += delta_cores;
    used_peak_ = std::max(used_peak_, used_cores_);
}

// ---- Request plumbing ----------------------------------------------------

bool
FleetSimulator::smaller_first(const Tenant* a, const Tenant* b)
{
    const int ca = a->width * a->height;
    const int cb = b->width * b->height;
    return ca != cb ? ca < cb : a->request_id < b->request_id;
}

const FleetSimulator::ClassRequests&
FleetSimulator::requests_of(int tenant_class) const
{
    VNPU_ASSERT(tenant_class >= 0 &&
                tenant_class < static_cast<int>(class_req_.size()));
    return class_req_[static_cast<std::size_t>(tenant_class)];
}

void
FleetSimulator::add_live(const Tenant& ten)
{
    const auto [it, fresh] = live_.emplace(ten.request_id, ten);
    VNPU_ASSERT(fresh);
    std::vector<const Tenant*>& list =
        residents_[static_cast<std::size_t>(ten.device)];
    list.insert(std::upper_bound(list.begin(), list.end(), &it->second,
                                 smaller_first),
                &it->second);
}

void
FleetSimulator::erase_live(std::map<std::uint64_t, Tenant>::iterator it)
{
    std::vector<const Tenant*>& list =
        residents_[static_cast<std::size_t>(it->second.device)];
    list.erase(std::find(list.begin(), list.end(), &it->second));
    live_.erase(it);
}

Tick
FleetSimulator::migration_cost(int cores) const
{
    const double bytes =
        static_cast<double>(cfg_.device.spad_bytes_per_core) * cores;
    return static_cast<Tick>(
        std::ceil(bytes / cfg_.migration_bytes_per_tick));
}

// ---- Event loop ----------------------------------------------------------

void
FleetSimulator::arrive(FleetRequest r)
{
    advance_integrals();
    // Same-tick arrivals join here rather than as later events of this
    // tick, which could land behind an already queued decision pass.
    for (;;) {
        enqueue(Queued{r, false});
        ++stats_.arrivals;
        if (!more_arrivals())
            break;
        r = arrivals_.next();
        if (r.arrival > now()) {
            queue_.schedule(r.arrival, [this, r] { arrive(r); });
            break;
        }
    }
    schedule_pass();
}

void
FleetSimulator::enqueue(const Queued& q)
{
    pending_.push_back(q);
    queue_peak_ = std::max(queue_peak_, pending_.size());
    queue_.schedule(q.req.arrival + cfg_.queue_timeout,
                    [this] { schedule_pass(); });
}

void
FleetSimulator::depart(std::uint64_t request_id, Tick expiry)
{
    auto it = live_.find(request_id);
    // A preempted tenant left early (and may be live again, with a
    // later expiry, after re-admission).
    if (it == live_.end() || it->second.expiry != expiry)
        return;
    advance_integrals();
    const Tenant ten = it->second;
    FleetDevice& dev = *devices_[static_cast<std::size_t>(ten.device)];
    const int cores = ten.width * ten.height;
    dev.hypervisor().destroy(ten.vm);
    note_used_delta(-cores);
    VNPU_TRACE(emit_instant(
        "fleet.depart", "fleet", expiry, obs::kTrackFleet,
        {obs::arg("req", request_id), obs::arg("dev", ten.device),
         obs::arg("vm", static_cast<std::int64_t>(ten.vm)),
         obs::arg("cores", cores)}));
    erase_live(it);
    capacity_dirty_ = true;
    schedule_pass();
}

void
FleetSimulator::schedule_pass()
{
    if (pass_scheduled_)
        return;
    pass_scheduled_ = true;
    queue_.schedule(now(), [this] { decide(); });
}

void
FleetSimulator::decide()
{
    VNPU_PROF("fleet.decide");
    pass_scheduled_ = false;
    advance_integrals();
    drain_queue(now());
    VNPU_SANITIZE_BLOCK({
        // Fleet conservation: every arrival is decided or still queued
        // for the first time, and the fleet, its tenants and its
        // devices agree on how many cores are in use.
        std::uint64_t first_time = 0;
        for (const Queued& q : pending_)
            first_time += q.requeued ? 0 : 1;
        VNPU_INVARIANT(stats_.arrivals.value() ==
                           stats_.admitted.value() +
                               stats_.rejected.value() + first_time,
                       "fleet conservation: arrivals=",
                       stats_.arrivals.value(), " admitted=",
                       stats_.admitted.value(), " rejected=",
                       stats_.rejected.value(), " queued=", first_time);
        int tenant_cores = 0;
        for (const auto& [id, ten] : live_)
            tenant_cores += ten.width * ten.height;
        int device_cores = 0;
        for (const auto& devp : devices_)
            device_cores += devp->num_cores() - devp->free_cores();
        VNPU_INVARIANT(used_cores_ == tenant_cores &&
                           tenant_cores == device_cores &&
                           device_cores <= total_cores_,
                       "fleet core accounting: used=", used_cores_,
                       " tenants=", tenant_cores, " devices=",
                       device_cores, " total=", total_cores_);
        // Each resident list is the device's live tenants, smallest
        // first: what a scan of every live tenant would give.
        for (std::size_t d = 0; d < devices_.size(); ++d) {
            std::vector<const Tenant*> scan;
            for (const auto& [id, ten] : live_)
                if (ten.device == static_cast<int>(d))
                    scan.push_back(&ten);
            std::sort(scan.begin(), scan.end(), smaller_first);
            VNPU_INVARIANT(scan == residents_[d], "fleet device ", d,
                           ": resident list holds ", residents_[d].size(),
                           " tenants, live scan ", scan.size());
        }
        ++check::counters().fleet_passes;
    })
    // Run end: drop the leftover patience wakes of requests decided
    // before their deadline, so now() (the makespan) and the integrals'
    // horizon stay at this last real event.
    if (pending_.empty() && live_.empty() && !more_arrivals() &&
        stats_.arrivals.value() == arrivals_.generated())
        queue_.clear();
}

void
FleetSimulator::expire_timeouts(Tick t)
{
    // Patience sweep over the whole queue, not just the head: a giant
    // head can block small requests past their own deadlines.
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->req.arrival + cfg_.queue_timeout <= t) {
            reject(it->req.arrival + cfg_.queue_timeout, *it);
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
}

void
FleetSimulator::drain_queue(Tick t)
{
    expire_timeouts(t);
    while (!pending_.empty()) {
        const Queued& head = pending_.front();
        // Damping: a head that failed placement can only succeed after
        // capacity changed (departure, migration) — skip futile scans.
        if (head.req.id == blocked_head_ && !capacity_dirty_)
            return;

        const Placement p = place(head.req);
        if (p.m.ok) {
            blocked_head_ = kNoHead;
            const Queued q = head;
            pending_.pop_front();
            FleetDevice& dev =
                *devices_[static_cast<std::size_t>(p.device)];
            virt::VirtualNpu& vm = dev.hypervisor().admit(*p.req, p.m);
            admit(t, q, p, vm, 0, 0);
            continue;
        }
        if (cfg_.defrag) {
            ++stats_.defrag_attempts;
            const DefragPlan plan = plan_defrag(head.req);
            if (plan.head.m.ok) {
                ++stats_.defrag_success;
                blocked_head_ = kNoHead;
                const Queued q = head;
                pending_.pop_front();
                DefragExec ex = execute_defrag(t, plan);
                admit(t, q, plan.head, *ex.head_vm, ex.wait,
                      static_cast<std::uint32_t>(plan.moves.size()));
                continue;
            }
        }
        blocked_head_ = head.req.id;
        capacity_dirty_ = false;
        return; // head-of-line block until capacity changes
    }
}

// ---- Placement policies --------------------------------------------------

FleetSimulator::Placement
FleetSimulator::place(const FleetRequest& r) const
{
    const ClassRequests& cr = requests_of(r.tenant_class);
    Placement p = pick(cr.exact);
    if (!p.m.ok && r.cores() <= cfg_.similar_fallback_max_cores)
        p = pick(cr.similar);
    return p;
}

FleetSimulator::Placement
FleetSimulator::pick(const hyp::MappingRequest& req) const
{
    VNPU_PROF("fleet.pick");
    Placement best{-1, &req, {}};
    int best_free = 0;
    for (const auto& devp : devices_) {
        const FleetDevice& dev = *devp;
        const int free = dev.free_cores();
        hyp::MappingResult m = dev.hypervisor().try_map(req);
        if (!m.ok)
            continue;
        if (cfg_.policy == PlacementPolicy::kFirstFit)
            return Placement{dev.id(), &req, std::move(m)};
        // Best fit minimizes TED, ties to the tightest fit (every exact
        // TED is 0); load-balanced wants the loosest fit.
        bool better = best.device < 0;
        if (!better) {
            if (cfg_.policy == PlacementPolicy::kBestFitTed)
                better = m.ted < best.m.ted ||
                         (m.ted == best.m.ted && free < best_free);
            else
                better = free > best_free;
        }
        if (better) {
            best = Placement{dev.id(), &req, std::move(m)};
            best_free = free;
        }
    }
    return best;
}

// ---- Admission / rejection ----------------------------------------------

void
FleetSimulator::admit(Tick t, const Queued& q, const Placement& p,
                      virt::VirtualNpu& vm, Tick migration_wait,
                      std::uint32_t migrations)
{
    FleetDevice& dev = *devices_[static_cast<std::size_t>(p.device)];

    // Admissions serialize through the fleet scheduler; service time
    // is base + the hosting device's private jitter draw. Migration
    // state-copy overlaps service but gates completion.
    const Tick start = std::max(t, sched_free_at_);
    Cycles jitter = 0;
    if (cfg_.admit_jitter_ticks > 0)
        jitter = dev.rng().next_below(cfg_.admit_jitter_ticks);
    if (cfg_.record_device_jitter)
        jitter_log_[static_cast<std::size_t>(p.device)].push_back(jitter);
    const Tick service = cfg_.admit_base_ticks + jitter;
    sched_free_at_ = start + service;
    const Tick done = start + service + migration_wait;

    const int cores = q.req.cores();
    note_used_delta(cores);

    Tenant ten;
    ten.request_id = q.req.id;
    ten.tenant_class = q.req.tenant_class;
    ten.width = q.req.width;
    ten.height = q.req.height;
    ten.device = p.device;
    ten.vm = vm.vm();
    ten.expiry = done + q.req.lifetime;
    add_live(ten);
    queue_.schedule(ten.expiry, [this, id = ten.request_id,
                                 expiry = ten.expiry] {
        depart(id, expiry);
    });
    capacity_dirty_ = true; // the admission reshaped a free set

    if (q.requeued)
        return; // preempted tenant going around again: already decided

    FleetDecision d;
    d.request_id = q.req.id;
    d.arrival = q.req.arrival;
    d.decided = done;
    d.device = p.device;
    d.vm = vm.vm();
    d.cores = cores;
    d.ted = vm.mapping_ted();
    d.admitted = true;
    d.migrations = migrations;
    record_decision(d);

    ++stats_.admitted;
    if (p.req->strategy == hyp::MappingStrategy::kExact)
        ++stats_.admitted_exact;
    else
        ++stats_.admitted_similar;
    stats_.admission_wait.record(
        static_cast<double>(done - q.req.arrival));
    stats_.realized_ted.record(d.ted);

    VNPU_TRACE(emit_complete(
        "fleet.admit", "fleet", start, service + migration_wait,
        obs::kTrackFleet,
        {obs::arg("req", q.req.id), obs::arg("dev", p.device),
         obs::arg("vm", static_cast<std::int64_t>(vm.vm())),
         obs::arg("cores", cores), obs::arg("ted", d.ted),
         obs::arg("wait", done - q.req.arrival),
         obs::arg("migrations", migrations)}));
}

void
FleetSimulator::reject(Tick t, const Queued& q)
{
    if (q.requeued)
        return; // a preempted tenant was decided when first admitted
    FleetDecision d;
    d.request_id = q.req.id;
    d.arrival = q.req.arrival;
    d.decided = t;
    d.cores = q.req.cores();
    d.admitted = false;
    record_decision(d);
    ++stats_.rejected;
    VNPU_TRACE(emit_instant(
        "fleet.reject", "fleet", t, obs::kTrackFleet,
        {obs::arg("req", q.req.id), obs::arg("cores", d.cores),
         obs::arg("waited", t - q.req.arrival)}));
}

// ---- Defragmentation / migration ----------------------------------------

FleetSimulator::DefragPlan
FleetSimulator::plan_defrag(const FleetRequest& r) const
{
    VNPU_PROF("fleet.plan_defrag");
    const hyp::MappingRequest& ereq = requests_of(r.tenant_class).exact;

    // Try devices in descending free-core order (ties: lowest id) —
    // the emptiest device needs the fewest migrations.
    std::vector<int> order;
    for (const auto& devp : devices_)
        order.push_back(devp->id());
    std::sort(order.begin(), order.end(), [this](int a, int b) {
        const int fa = devices_[static_cast<std::size_t>(a)]->free_cores();
        const int fb = devices_[static_cast<std::size_t>(b)]->free_cores();
        return fa != fb ? fa > fb : a < b;
    });

    // Hypothetical free sets of every device, by device id.
    std::vector<CoreSet> other_avail(devices_.size());
    for (int d : order) {
        const FleetDevice& dev = *devices_[static_cast<std::size_t>(d)];
        // Every device has the same mesh, so one mapper answers for all.
        const hyp::TopologyMapper& mapper = dev.hypervisor().mapper();
        CoreSet acc = dev.hypervisor().free_cores();
        std::vector<const Tenant*> victims;
        // Candidate victims on this device, smallest (cheapest) first.
        for (const Tenant* v : residents_[static_cast<std::size_t>(d)]) {
            if (static_cast<int>(victims.size()) >=
                cfg_.max_defrag_victims)
                break;
            acc |= dev.hypervisor().find(v->vm)->mask();
            victims.push_back(v);
            hyp::MappingResult m = mapper.map(ereq, acc);
            if (!m.ok)
                continue;

            // The head request lands on region_r; only victims it
            // actually overlaps need to move.
            const CoreSet region_r = CoreSet::from_range(m.assignment);
            std::vector<const Tenant*> moving;
            CoreSet avail = dev.hypervisor().free_cores();
            for (const Tenant* w : victims) {
                const CoreSet wm =
                    dev.hypervisor().find(w->vm)->mask();
                if ((wm & region_r).none())
                    continue; // stays put, keeps its cores
                moving.push_back(w);
                avail |= wm;
            }
            avail = avail.andnot(region_r);

            // Verify a landing spot for every mover (largest first, so
            // big blocks grab contiguous space before crumbs do).
            // Hypothetical free sets track multi-mover consumption on
            // every device; execution admits the planned mappings in
            // plan order against exactly these sets.
            std::sort(moving.begin(), moving.end(),
                      [](const Tenant* a, const Tenant* b) {
                          const int ca = a->width * a->height;
                          const int cb = b->width * b->height;
                          return ca != cb
                                     ? ca > cb
                                     : a->request_id < b->request_id;
                      });
            for (std::size_t o = 0; o < devices_.size(); ++o)
                other_avail[o] = devices_[o]->hypervisor().free_cores();

            DefragPlan plan{Placement{d, &ereq, std::move(m)}, {}};
            for (const Tenant* w : moving) {
                const ClassRequests& wreq = requests_of(w->tenant_class);
                // Same device, in the space left after the head lands;
                // then other devices, exact, first-fit; last resort:
                // straightforward on the home device — the k lowest
                // free cores, no contiguity and no NoC isolation, but
                // also no search cost.
                VictimMove mv{w->request_id,
                              {d, &wreq.exact, mapper.map(wreq.exact, avail)}};
                CoreSet* lands_in = &avail;
                for (int oid = 0; !mv.to.m.ok && oid < num_devices();
                     ++oid) {
                    if (oid == d)
                        continue;
                    lands_in = &other_avail[static_cast<std::size_t>(oid)];
                    mv.to = {oid, &wreq.exact,
                             mapper.map(wreq.exact, *lands_in)};
                }
                if (!mv.to.m.ok) {
                    lands_in = &avail;
                    mv.to = {d, &wreq.straightforward,
                             mapper.map(wreq.straightforward, avail)};
                }
                if (!mv.to.m.ok)
                    break;
                *lands_in =
                    lands_in->andnot(CoreSet::from_range(mv.to.m.assignment));
                plan.moves.push_back(std::move(mv));
            }
            if (plan.moves.size() == moving.size())
                return plan; // every mover lands
            // else accumulate more victims / next device
        }
    }
    return DefragPlan{};
}

FleetSimulator::DefragExec
FleetSimulator::execute_defrag(Tick t, const DefragPlan& plan)
{
    FleetDevice& home =
        *devices_[static_cast<std::size_t>(plan.head.device)];
    DefragExec ex;

    // Destroy every mover first so the head's mapping lands on free
    // cores; then admit the head; then admit the movers in plan order
    // (the plan's hypothetical free sets replay exactly). The head was
    // mapped on a superset of this free set that holds its region, and
    // the exact slide's lowest fitting anchor there is also the lowest
    // here: a fresh map would pick the same region.
    std::vector<Tenant> moved;
    moved.reserve(plan.moves.size());
    for (const VictimMove& mv : plan.moves) {
        const auto it = live_.find(mv.request_id);
        VNPU_ASSERT(it != live_.end());
        const Tenant& ten = it->second;
        home.hypervisor().destroy(ten.vm);
        note_used_delta(-(ten.width * ten.height));
        moved.push_back(ten);
        erase_live(it);
    }

    ex.head_vm = &home.hypervisor().admit(*plan.head.req, plan.head.m);

    for (std::size_t i = 0; i < plan.moves.size(); ++i) {
        const VictimMove& mv = plan.moves[i];
        Tenant ten = moved[i];
        FleetDevice& target =
            *devices_[static_cast<std::size_t>(mv.to.device)];
        const int cores = ten.width * ten.height;
        try {
            const virt::VirtualNpu& nv =
                target.hypervisor().admit(*mv.to.req, mv.to.m);
            const Tick cost = migration_cost(cores);
            ex.wait = std::max(ex.wait, cost);
            ++stats_.migrations;
            stats_.migrated_cores += static_cast<std::uint64_t>(cores);
            stats_.migration_ticks.record(static_cast<double>(cost));
            VNPU_TRACE(emit_complete(
                "fleet.migrate", "fleet", t, cost, obs::kTrackFleet,
                {obs::arg("req", ten.request_id),
                 obs::arg("from", plan.head.device),
                 obs::arg("to", mv.to.device), obs::arg("cores", cores),
                 obs::arg("strategy", to_string(mv.to.req->strategy))}));
            ten.device = mv.to.device;
            ten.vm = nv.vm();
            note_used_delta(cores);
            add_live(ten);
        } catch (const SimFatal&) {
            // The verified plan failed anyway (should not happen): the
            // tenant is preempted back into the queue with its
            // remaining lifetime and a fresh patience window.
            FleetRequest back;
            back.id = ten.request_id;
            back.arrival = t;
            back.width = ten.width;
            back.height = ten.height;
            back.lifetime = ten.expiry > t ? ten.expiry - t : 1;
            back.tenant_class = ten.tenant_class;
            enqueue(Queued{back, true});
            ++stats_.preemptions;
        }
    }
    capacity_dirty_ = true;
    return ex;
}

// ---- Reporting -----------------------------------------------------------

void
FleetSimulator::record_decision(const FleetDecision& d)
{
    decisions_.push_back(d);
}

std::uint64_t
FleetSimulator::decision_hash() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const FleetDecision& d : decisions_) {
        h = fnv1a_u64(h, d.request_id);
        h = fnv1a_u64(h, d.arrival);
        h = fnv1a_u64(h, d.decided);
        h = fnv1a_u64(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(d.device)));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(d.vm)));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(d.cores));
        std::uint64_t ted_bits = 0;
        static_assert(sizeof ted_bits == sizeof d.ted);
        std::memcpy(&ted_bits, &d.ted, sizeof ted_bits);
        h = fnv1a_u64(h, ted_bits);
        h = fnv1a_u64(h, d.admitted ? 1 : 0);
        h = fnv1a_u64(h, d.migrations);
    }
    return h;
}

std::uint64_t
FleetSimulator::decision_hash48() const
{
    const std::uint64_t h = decision_hash();
    return (h ^ (h >> 48)) & ((std::uint64_t{1} << 48) - 1);
}

std::vector<std::pair<int, VmId>>
FleetSimulator::live_vms() const
{
    std::vector<std::pair<int, VmId>> out;
    out.reserve(live_.size());
    for (const auto& [id, ten] : live_)
        out.emplace_back(ten.device, ten.vm);
    std::sort(out.begin(), out.end());
    return out;
}

double
FleetSimulator::utilization_mean() const
{
    const double horizon =
        static_cast<double>(std::max<Tick>(last_integral_t_, 1));
    return used_core_ticks_ / (horizon * std::max(total_cores_, 1));
}

double
FleetSimulator::utilization_peak() const
{
    return static_cast<double>(used_peak_) / std::max(total_cores_, 1);
}

double
FleetSimulator::queue_depth_mean() const
{
    const double horizon =
        static_cast<double>(std::max<Tick>(last_integral_t_, 1));
    return queue_depth_ticks_ / horizon;
}

void
FleetSimulator::collect_stats(StatSet& out,
                              const std::string& prefix) const
{
    out.add(prefix + "arrivals",
            static_cast<double>(stats_.arrivals.value()));
    out.add(prefix + "admitted",
            static_cast<double>(stats_.admitted.value()));
    out.add(prefix + "rejected",
            static_cast<double>(stats_.rejected.value()));
    out.add(prefix + "admitted.exact",
            static_cast<double>(stats_.admitted_exact.value()));
    out.add(prefix + "admitted.similar",
            static_cast<double>(stats_.admitted_similar.value()));
    out.add(prefix + "defrag.attempts",
            static_cast<double>(stats_.defrag_attempts.value()));
    out.add(prefix + "defrag.success",
            static_cast<double>(stats_.defrag_success.value()));
    out.add(prefix + "migrations",
            static_cast<double>(stats_.migrations.value()));
    out.add(prefix + "migrated_cores",
            static_cast<double>(stats_.migrated_cores.value()));
    out.add(prefix + "preemptions",
            static_cast<double>(stats_.preemptions.value()));
    out.set(prefix + "devices", static_cast<double>(devices_.size()));
    out.set(prefix + "queue.depth",
            static_cast<double>(pending_.size()));
    out.set(prefix + "queue.depth_peak",
            static_cast<double>(queue_peak_));
    out.set(prefix + "queue.depth_mean", queue_depth_mean());
    out.set(prefix + "live_tenants", static_cast<double>(live_.size()));
    out.set(prefix + "util.mean", utilization_mean());
    out.set(prefix + "util.peak", utilization_peak());
    stats_.admission_wait.collect(out, prefix + "wait.");
    stats_.realized_ted.collect(out, prefix + "ted.");
    stats_.migration_ticks.collect(out, prefix + "migration.");
}

} // namespace vnpu::fleet
