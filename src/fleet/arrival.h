/**
 * @file
 * Open-loop arrival processes for fleet-scale serving simulation.
 *
 * A serving frontend does not wait for the rack to drain before the
 * next tenant shows up: requests arrive on their own clock (open loop)
 * and queue when the fleet is full. This module generates that stream:
 * Poisson arrivals, with the tenant mix drawn from the model zoo
 * (src/workload/model_zoo.h).
 *
 * Determinism: every draw comes from one explicitly seeded Rng
 * substream owned by the process; the sequence of requests is a pure
 * function of (config, seed).
 */

#ifndef VNPU_FLEET_ARRIVAL_H
#define VNPU_FLEET_ARRIVAL_H

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace vnpu::fleet {

/**
 * One tenant class of the serving mix: a model-zoo workload mapped to
 * the rectangular vNPU shape it is served on, with an arrival weight
 * and a mean service lifetime. Shapes are rectangles (width x height)
 * because production serving carves accelerator meshes into tiles; the
 * topology mapper's sliding-rectangle fast path admits them in
 * microseconds, and fragmentation pressure comes from the size spread.
 */
struct TenantClass {
    const char* model;   ///< Model-zoo short name (validated at build).
    int width = 1;       ///< Requested mesh width.
    int height = 1;      ///< Requested mesh height.
    double weight = 1.0; ///< Relative arrival probability.
    Tick mean_lifetime = 0; ///< Mean service duration (exponential).
};

/**
 * The default serving mix: mostly small CNN tenants, a tail of large
 * transformer tenants whose 128/256-core rectangles are the requests
 * that fragmentation blocks first (docs/fleet.md).
 */
const std::vector<TenantClass>& default_tenant_mix();

/**
 * How arrival instants are generated. Poisson is the only model; the
 * enum stays because the benchmark runner sets `ArrivalConfig::model`.
 */
enum class ArrivalModel : std::uint8_t {
    kPoisson, ///< Exponential inter-arrival gaps.
};

/** Arrival-process parameters. */
struct ArrivalConfig {
    ArrivalModel model = ArrivalModel::kPoisson;
    /** Mean inter-arrival gap in ticks. */
    Tick mean_gap = 100;
};

/** One serving request emitted by the arrival process. */
struct FleetRequest {
    std::uint64_t id = 0;  ///< Monotonic arrival number.
    Tick arrival = 0;      ///< Arrival instant (open loop).
    int width = 1;         ///< Requested mesh width.
    int height = 1;        ///< Requested mesh height.
    Tick lifetime = 0;     ///< Service duration once admitted.
    int tenant_class = 0;  ///< Index into the mix.

    int cores() const { return width * height; }
};

/**
 * Open-loop request generator. `next()` returns requests with
 * non-decreasing arrival ticks; the process never looks at fleet
 * state, which is what makes the load open-loop.
 */
class ArrivalProcess {
  public:
    /**
     * @param seed Master fleet seed; the process draws from its own
     *        substream so arrival randomness is decoupled from every
     *        device's decision stream (see Rng::substream).
     * @throws SimFatal when the mix is empty or names an unknown
     *         model-zoo entry, or `mean_gap` is 0.
     */
    ArrivalProcess(const ArrivalConfig& cfg, std::uint64_t seed,
                   std::vector<TenantClass> mix = default_tenant_mix());

    /** Generate the next arrival. */
    FleetRequest next();

    std::uint64_t generated() const { return next_id_; }
    const std::vector<TenantClass>& mix() const { return mix_; }

  private:
    ArrivalConfig cfg_;
    std::vector<TenantClass> mix_;
    std::vector<double> cum_weight_;
    Rng rng_;
    Tick now_ = 0;
    std::uint64_t next_id_ = 0;
};

} // namespace vnpu::fleet

#endif // VNPU_FLEET_ARRIVAL_H
