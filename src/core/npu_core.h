/**
 * @file
 * The NPU core execution engine.
 *
 * A core runs one or more *contexts* (virtual cores). Normal operation
 * uses one context; MIG-style time-division multiplexing assigns
 * several, which the core serializes round-robin with a context-switch
 * penalty (contexts stay scratchpad-resident, paper §6.3.2).
 *
 * Each context executes its program in order. Compute and DMA occupy
 * the core until completion; sends occupy it for injection only; a recv
 * blocks the context (the core switches to another runnable context if
 * one exists) until the matching message is delivered by the NoC.
 */

#ifndef VNPU_CORE_NPU_CORE_H
#define VNPU_CORE_NPU_CORE_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/compute.h"
#include "core/isa.h"
#include "mem/dma.h"
#include "noc/network.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace vnpu::core {

/**
 * Core-side virtualization hooks. The bare-metal core runs with a null
 * hook (peer ids are physical); virtualized contexts install the NoC
 * vRouter, which translates virtual core ids and confines routes.
 */
class CoreVirtHooks {
  public:
    struct Xlat {
        CoreId phys;   ///< Physical core id.
        Cycles cost;   ///< Lookup cost (cached or meta-zone fetch).
    };

    virtual ~CoreVirtHooks() = default;

    /** Translate a virtual peer core id for a send/recv. */
    virtual Xlat translate_peer(CoreId vpeer) = 0;

    /** Confined routing for this VM, or nullptr for default DOR. */
    virtual const noc::RouteOverride* route_override() const = 0;
};

/** Per-context runtime statistics. */
struct ContextStats {
    Cycles busy_compute = 0;
    Cycles busy_dma = 0;
    Cycles busy_send = 0;
    Cycles busy_switch = 0;
    Cycles wait_recv = 0;
    Cycles vrouter_cycles = 0;   ///< Cycles spent in id translation.
    std::uint64_t instructions = 0;
    std::uint64_t flops = 0;
    std::uint32_t iterations = 0; ///< Completed kIterBegin markers.
    Cycles warmup = 0;           ///< Start to first kIterBegin.
    Distribution iter_latency;   ///< Cycles per iteration.
    /** Tick of each kIterBegin (capped; enables steady-state-period
     *  measurement that excludes the pipeline-fill gap). */
    std::vector<Tick> iter_starts;
    Tick start_tick = 0;
    Tick done_tick = 0;
    bool done = false;
};

/** Configuration of one context (virtual core) on a physical core. */
struct ContextConfig {
    VmId vm = kNoVm;
    /** Translation scheme for this VM's DMA (nullptr = physical). */
    mem::Translator* translator = nullptr;
    /** NoC vRouter hook (nullptr = bare metal). */
    CoreVirtHooks* vrouter = nullptr;
    /** Per-core DMA bandwidth cap in bytes/cycle (<= 0: uncapped). */
    double bw_cap = 0.0;
    /** VM-aggregate bandwidth limiter (nullptr = uncapped). */
    mem::SharedBandwidthLimiter* shared_cap = nullptr;
};

/** One physical NPU core. */
class NpuCore {
  public:
    NpuCore(const SocConfig& cfg, CoreId id, EventQueue& eq,
            noc::Network& net, mem::DmaEngine& dma);

    NpuCore(const NpuCore&) = delete;
    NpuCore& operator=(const NpuCore&) = delete;

    /**
     * Install a program as a new context; returns the context index.
     * The context owns the only copy: pass it with std::move. Its
     * capacity is trimmed to its size.
     */
    int add_context(Program prog, const ContextConfig& cfg);

    /** Arm all contexts to begin execution at `when`. */
    void start(Tick when);

    /** NoC delivery entry point (wired to Network's callback). */
    void deliver(CoreId src_phys, std::uint64_t bytes, int tag, VmId vm,
                 bool credit);

    /** Invoked once when every context has halted. */
    void set_done_callback(std::function<void(CoreId)> cb)
    {
        done_cb_ = std::move(cb);
    }

    bool all_done() const;
    int num_contexts() const { return static_cast<int>(ctxs_.size()); }
    const ContextStats& context_stats(int ctx) const
    {
        return ctxs_[ctx]->stats;
    }
    CoreId id() const { return id_; }
    mem::DmaEngine& dma() { return dma_; }

    /** Telemetry sweep: context totals summed across this core's
     *  contexts; `add()` keys aggregate across cores sharing a prefix. */
    void collect_stats(StatSet& out, const std::string& prefix) const;

    /** Drop all contexts and state (between experiments). */
    void reset();

  private:
    enum class CtxState { kReady, kWaiting, kDone };
    /** What a waiting context is blocked on. */
    enum class WaitKind { kNone, kData, kCredit };

    struct InboxEntry {
        std::uint64_t bytes;
        CoreId src_phys;
    };

    struct Context {
        Program prog;
        std::size_t pc = 0;
        /** Bytes of the chunked load at pc already issued. */
        std::uint64_t dma_off = 0;
        ContextConfig cfg;
        CtxState state = CtxState::kReady;
        Tick resume_at = 0;
        WaitKind wait_kind = WaitKind::kNone;
        int wait_tag = 0;
        Tick wait_start = 0;
        std::uint32_t iteration = 0;
        Tick iter_start = 0;
        /** Arrived-but-unconsumed messages, keyed by tag. */
        std::map<int, std::deque<InboxEntry>> inbox;
        /** Flow-control credits per outgoing edge tag. */
        std::map<int, int> credits;
        /**
         * Program index of the last kRecv per tag (built at load
         * time). A tag is still consumable iff that index is >= pc,
         * so delivery lookup is O(log tags) instead of a linear
         * rescan of the program text per message.
         */
        std::map<int, std::size_t> last_recv_pc;
        ContextStats stats;

        /** True when a kRecv for `tag` is at or after the current pc. */
        bool
        expects_tag(int tag) const
        {
            auto it = last_recv_pc.find(tag);
            return it != last_recv_pc.end() && it->second >= pc;
        }
    };

    /** Return one credit to the producer after consuming a message. */
    void return_credit(Context& ctx, int tag, CoreId src_phys, Tick now);

    void schedule_step(Tick when);
    void step();
    /** Execute one timed instruction of ctx at `now`. */
    void execute(Context& ctx, Tick now);
    int pick_runnable(Tick now) const;
    Tick next_resume() const;

    const SocConfig& cfg_;
    CoreId id_;
    EventQueue& eq_;
    noc::Network& net_;
    mem::DmaEngine& dma_;
    ComputeModel compute_;
    std::vector<std::unique_ptr<Context>> ctxs_;
    int active_ = -1;
    Tick busy_until_ = 0;
    std::function<void(CoreId)> done_cb_;
    int done_count_ = 0;
};

} // namespace vnpu::core

#endif // VNPU_CORE_NPU_CORE_H
