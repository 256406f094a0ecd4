#include "core/npu_core.h"

#include <algorithm>

#include "sim/log.h"

namespace vnpu::core {

NpuCore::NpuCore(const SocConfig& cfg, CoreId id, EventQueue& eq,
                 noc::Network& net, mem::DmaEngine& dma)
    : cfg_(cfg), id_(id), eq_(eq), net_(net), dma_(dma), compute_(cfg)
{
}

int
NpuCore::add_context(Program prog, const ContextConfig& ccfg)
{
    auto ctx = std::make_unique<Context>();
    ctx->prog = std::move(prog);
    ctx->prog.shrink_to_fit();
    ctx->cfg = ccfg;
    for (std::size_t i = 0; i < ctx->prog.size(); ++i)
        if (ctx->prog[i].op == Opcode::kRecv)
            ctx->last_recv_pc[ctx->prog[i].tag] = i;
    ctxs_.push_back(std::move(ctx));
    return static_cast<int>(ctxs_.size()) - 1;
}

void
NpuCore::start(Tick when)
{
    for (auto& ctx : ctxs_) {
        ctx->state = CtxState::kReady;
        ctx->resume_at = when;
        ctx->stats.start_tick = when;
    }
    if (!ctxs_.empty())
        schedule_step(when);
}

bool
NpuCore::all_done() const
{
    return done_count_ == static_cast<int>(ctxs_.size());
}

void
NpuCore::reset()
{
    ctxs_.clear();
    active_ = -1;
    busy_until_ = 0;
    done_count_ = 0;
}

void
NpuCore::collect_stats(StatSet& out, const std::string& prefix) const
{
    for (const auto& ctx : ctxs_) {
        const ContextStats& s = ctx->stats;
        out.add(prefix + "busy_compute", static_cast<double>(s.busy_compute));
        out.add(prefix + "busy_dma", static_cast<double>(s.busy_dma));
        out.add(prefix + "busy_send", static_cast<double>(s.busy_send));
        out.add(prefix + "busy_switch", static_cast<double>(s.busy_switch));
        out.add(prefix + "wait_recv", static_cast<double>(s.wait_recv));
        out.add(prefix + "vrouter_cycles",
                static_cast<double>(s.vrouter_cycles));
        out.add(prefix + "instructions",
                static_cast<double>(s.instructions));
        out.add(prefix + "flops", static_cast<double>(s.flops));
        out.add(prefix + "iterations", static_cast<double>(s.iterations));
    }
    out.add(prefix + "contexts", static_cast<double>(ctxs_.size()));
}

void
NpuCore::schedule_step(Tick when)
{
    eq_.schedule(std::max(when, eq_.now()), [this] { step(); });
}

int
NpuCore::pick_runnable(Tick now) const
{
    const int n = static_cast<int>(ctxs_.size());
    // Prefer continuing the active context (no switch penalty); else
    // round-robin starting after it.
    if (active_ >= 0 && ctxs_[active_]->state == CtxState::kReady &&
        ctxs_[active_]->resume_at <= now) {
        return active_;
    }
    for (int off = 1; off <= n; ++off) {
        int i = (active_ + off + n) % n;
        if (ctxs_[i]->state == CtxState::kReady &&
            ctxs_[i]->resume_at <= now) {
            return i;
        }
    }
    return -1;
}

Tick
NpuCore::next_resume() const
{
    Tick next = kTickMax;
    for (const auto& ctx : ctxs_)
        if (ctx->state == CtxState::kReady)
            next = std::min(next, ctx->resume_at);
    return next;
}

void
NpuCore::step()
{
    Tick now = eq_.now();
    if (now < busy_until_) {
        schedule_step(busy_until_);
        return;
    }
    int pick = pick_runnable(now);
    if (pick < 0) {
        Tick next = next_resume();
        if (next != kTickMax && next > now)
            schedule_step(next);
        // Otherwise the core idles until a delivery wakes it.
        return;
    }

    if (pick != active_ && active_ >= 0 && ctxs_.size() > 1) {
        // TDM context switch: pipeline drain + issue restart.
        Context& incoming = *ctxs_[pick];
        incoming.stats.busy_switch += cfg_.context_switch_cycles;
        busy_until_ = now + cfg_.context_switch_cycles;
        active_ = pick;
        schedule_step(busy_until_);
        return;
    }
    active_ = pick;
    execute(*ctxs_[pick], now);
}

void
NpuCore::execute(Context& ctx, Tick now)
{
    // Fold zero-cost markers into the same step.
    while (ctx.pc < ctx.prog.size() &&
           ctx.prog[ctx.pc].op == Opcode::kIterBegin) {
        if (ctx.iteration == 0) {
            ctx.stats.warmup = now - ctx.stats.start_tick;
        } else {
            ctx.stats.iter_latency.sample(
                static_cast<double>(now - ctx.iter_start));
        }
        ctx.iter_start = now;
        if (ctx.stats.iter_starts.size() < 4096)
            ctx.stats.iter_starts.push_back(now);
        ++ctx.iteration;
        ctx.stats.iterations = ctx.iteration;
        ++ctx.stats.instructions;
        ++ctx.pc;
    }
    if (ctx.pc >= ctx.prog.size())
        panic("program ran off the end on core ", id_);

    const Instr& instr = ctx.prog[ctx.pc];
    ++ctx.stats.instructions;

    switch (instr.op) {
      case Opcode::kCompute: {
        KernelCost cost = compute_.cost(instr.dims);
        ctx.stats.busy_compute += cost.cycles;
        ctx.stats.flops += cost.flops;
        busy_until_ = now + cost.cycles;
        ++ctx.pc;
        ctx.resume_at = busy_until_;
        schedule_step(busy_until_);
        return;
      }

      case Opcode::kLoadWeight:
      case Opcode::kLoadGlobal:
      case Opcode::kStoreGlobal: {
        dma_.set_translator(ctx.cfg.translator);
        dma_.set_bandwidth_cap(ctx.cfg.bw_cap);
        dma_.set_shared_cap(ctx.cfg.shared_cap);
        dma_.set_iteration(ctx.iteration);
        // A chunked load issues one chunk per step, at va + dma_off; the
        // pc moves on after the last. Every other DMA is one transfer.
        const std::uint64_t bytes =
            instr.chunk != 0
                ? std::min<std::uint64_t>(instr.chunk,
                                          instr.bytes - ctx.dma_off)
                : instr.bytes;
        const Addr va = instr.va + ctx.dma_off;
        Tick done = instr.op == Opcode::kStoreGlobal
                        ? dma_.store(now, va, bytes, ctx.cfg.vm)
                        : dma_.load(now, va, bytes, ctx.cfg.vm);
        ctx.stats.busy_dma += done - now;
        busy_until_ = done;
        ctx.dma_off += bytes;
        if (ctx.dma_off == instr.bytes) {
            ctx.dma_off = 0;
            ++ctx.pc;
        }
        ctx.resume_at = done;
        schedule_step(done);
        return;
      }

      case Opcode::kSend: {
        // Flow control: each edge may have at most `edge_credits`
        // unconsumed messages in flight (finite receive buffers).
        int& credits =
            ctx.credits.try_emplace(instr.tag, cfg_.edge_credits)
                .first->second;
        if (credits == 0) {
            ctx.state = CtxState::kWaiting;
            ctx.wait_kind = WaitKind::kCredit;
            ctx.wait_tag = instr.tag;
            ctx.wait_start = now;
            schedule_step(now); // let another context in
            return;
        }
        --credits;

        CoreId dst = instr.peer;
        Cycles xlat = 0;
        const noc::RouteOverride* route = nullptr;
        if (ctx.cfg.vrouter) {
            CoreVirtHooks::Xlat x = ctx.cfg.vrouter->translate_peer(dst);
            dst = x.phys;
            xlat = x.cost;
            route = ctx.cfg.vrouter->route_override();
        }
        ctx.stats.vrouter_cycles += xlat;
        noc::SendResult r = net_.send(now + xlat, id_, dst, instr.bytes,
                                      ctx.cfg.vm, instr.tag, route);
        ctx.stats.busy_send += r.sender_free - now;
        busy_until_ = r.sender_free;
        ++ctx.pc;
        ctx.resume_at = busy_until_;
        schedule_step(busy_until_);
        return;
      }

      case Opcode::kRecv: {
        Cycles xlat = 0;
        if (ctx.cfg.vrouter) {
            // The receive engine resolves the expected source id.
            xlat = ctx.cfg.vrouter->translate_peer(instr.peer).cost;
        }
        ctx.stats.vrouter_cycles += xlat;
        auto it = ctx.inbox.find(instr.tag);
        if (it != ctx.inbox.end() && !it->second.empty()) {
            InboxEntry entry = it->second.front();
            it->second.pop_front();
            return_credit(ctx, instr.tag, entry.src_phys, now);
            busy_until_ = now + xlat + 1;
            ++ctx.pc;
            ctx.resume_at = busy_until_;
            schedule_step(busy_until_);
        } else {
            ctx.state = CtxState::kWaiting;
            ctx.wait_kind = WaitKind::kData;
            ctx.wait_tag = instr.tag;
            ctx.wait_start = now;
            busy_until_ = now + xlat;
            schedule_step(busy_until_); // let another context in
        }
        return;
      }

      case Opcode::kHalt: {
        ctx.state = CtxState::kDone;
        ctx.stats.done = true;
        ctx.stats.done_tick = now;
        ++done_count_;
        if (all_done() && done_cb_)
            done_cb_(id_);
        schedule_step(now); // other contexts may continue
        return;
      }

      case Opcode::kIterBegin:
        panic("unreachable: markers folded above");
    }
}

void
NpuCore::return_credit(Context& ctx, int tag, CoreId src_phys, Tick now)
{
    if (src_phys == kInvalidCore)
        return;
    // The receive engine returns the credit autonomously; the context
    // is not occupied. Credits follow the same (confined) routes.
    const noc::RouteOverride* route =
        ctx.cfg.vrouter ? ctx.cfg.vrouter->route_override() : nullptr;
    net_.send(now, id_, src_phys, cfg_.credit_bytes, ctx.cfg.vm, tag,
              route, /*credit=*/true);
}

void
NpuCore::deliver(CoreId src_phys, std::uint64_t bytes, int tag, VmId vm,
                 bool credit)
{
    Tick now = eq_.now();

    if (credit) {
        // Find the producer context of this edge: it either waits on
        // the credit or simply owns the tag in its credit map.
        for (auto& ctx : ctxs_) {
            if (ctx->cfg.vm != vm)
                continue;
            auto it = ctx->credits.find(tag);
            if (it == ctx->credits.end())
                continue;
            ++it->second;
            if (ctx->state == CtxState::kWaiting &&
                ctx->wait_kind == WaitKind::kCredit &&
                ctx->wait_tag == tag) {
                ctx->stats.wait_recv += now - ctx->wait_start;
                ctx->state = CtxState::kReady;
                ctx->wait_kind = WaitKind::kNone;
                // pc unchanged: the blocked kSend re-executes.
                ctx->resume_at = now;
                schedule_step(now);
            }
            return;
        }
        return; // credit for an already-finished program
    }

    // Route to the context of this VM that is waiting for (or will
    // consume) this tag. Tags are unique per logical edge within a VM,
    // so at most one context on this core expects a given tag.
    Context* target = nullptr;
    for (auto& ctx : ctxs_) {
        if (ctx->cfg.vm != vm)
            continue;
        if (ctx->state == CtxState::kWaiting &&
            ctx->wait_kind == WaitKind::kData && ctx->wait_tag == tag) {
            target = ctx.get();
            break;
        }
        // Not waiting yet: does any future recv in this context use
        // the tag? The per-tag index built at load time answers in
        // O(log tags); the old per-delivery scan of the program text
        // was quadratic for long programs.
        if (ctx->expects_tag(tag)) {
            target = ctx.get();
            break;
        }
    }
    if (!target) {
        warn("core ", id_, ": dropping message tag ", tag, " vm ", vm,
             " with no matching context");
        return;
    }

    target->inbox[tag].push_back({bytes, src_phys});
    if (target->state == CtxState::kWaiting &&
        target->wait_kind == WaitKind::kData && target->wait_tag == tag) {
        target->inbox[tag].pop_front();
        return_credit(*target, tag, src_phys, now);
        target->stats.wait_recv += now - target->wait_start;
        target->state = CtxState::kReady;
        target->wait_kind = WaitKind::kNone;
        ++target->pc; // the blocked kRecv completes on delivery
        target->resume_at = now;
        schedule_step(now);
    }
}

} // namespace vnpu::core
