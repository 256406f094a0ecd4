#include "fleet/arrival.h"

#include <cmath>

#include "sim/log.h"
#include "workload/model_zoo.h"

namespace vnpu::fleet {

namespace {

/** Substream id of the arrival process under the master fleet seed —
 *  far away from the device ids that seed per-device streams. */
constexpr std::uint64_t kArrivalStream = 0xA227B4A1ULL;

/** Exponential gap with the given mean, quantized to >= 1 tick. */
Tick
exponential_gap(Rng& rng, double mean)
{
    // 1 - u in (0, 1]: log() never sees zero.
    double u = rng.next_double();
    double g = -std::log(1.0 - u) * mean;
    if (g < 1.0)
        return 1;
    return static_cast<Tick>(std::llround(g));
}

} // namespace

const std::vector<TenantClass>&
default_tenant_mix()
{
    // Shapes follow the serving footprint of each zoo model: small
    // CNNs tile onto 4-16 cores, encoder/decoder stacks onto 32-64,
    // and the GPT-2 tail wants 128/256-core rectangles. Lifetimes put
    // roughly half the steady-state core demand in the large classes,
    // so fragmentation (not raw capacity) is what blocks them.
    static const std::vector<TenantClass> mix{
        {"mobilenet", 2, 2, 0.14, 40'000},
        {"resnet18", 2, 2, 0.20, 60'000},
        {"resnet34", 4, 2, 0.16, 60'000},
        {"resnet50", 4, 4, 0.14, 80'000},
        {"bert", 8, 4, 0.12, 100'000},
        {"gpt2-s", 8, 8, 0.10, 120'000},
        {"gpt2-m", 16, 8, 0.08, 150'000},
        {"gpt2-l", 16, 16, 0.06, 200'000},
    };
    return mix;
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig& cfg,
                               std::uint64_t seed,
                               std::vector<TenantClass> mix)
    : cfg_(cfg), mix_(std::move(mix)),
      rng_(Rng::substream(seed, kArrivalStream))
{
    if (mix_.empty())
        fatal("arrival process needs a non-empty tenant mix");
    if (cfg_.mean_gap == 0)
        fatal("arrival mean_gap must be >= 1 tick");
    double cum = 0.0;
    for (const TenantClass& c : mix_) {
        if (c.width <= 0 || c.height <= 0 || c.weight <= 0.0)
            fatal("tenant class '", c.model,
                  "' needs positive shape and weight");
        // The mix is drawn from the model zoo: every class must name a
        // real workload (by_name throws on typos).
        (void)workload::by_name(c.model);
        cum += c.weight;
        cum_weight_.push_back(cum);
    }
}

FleetRequest
ArrivalProcess::next()
{
    FleetRequest r;
    r.id = next_id_++;
    now_ += exponential_gap(rng_, static_cast<double>(cfg_.mean_gap));
    r.arrival = now_;

    double u = rng_.next_double() * cum_weight_.back();
    std::size_t cls = 0;
    while (cls + 1 < cum_weight_.size() && u >= cum_weight_[cls])
        ++cls;
    const TenantClass& c = mix_[cls];
    r.tenant_class = static_cast<int>(cls);
    r.width = c.width;
    r.height = c.height;
    r.lifetime = exponential_gap(
        rng_, static_cast<double>(c.mean_lifetime));
    return r;
}

} // namespace vnpu::fleet
