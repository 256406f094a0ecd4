/**
 * @file
 * Bounded in-memory admission audit log.
 *
 * Every `Hypervisor::create()` — admitted or rejected — pushes one
 * entry describing the request, the mapper's funnel effort, and the
 * outcome. The ring keeps the most recent `capacity()` entries so a
 * long-running sweep cannot grow memory without bound, and dumps as
 * JSON Lines for offline analysis (tools/trace_summary.py reads it).
 */

#ifndef VNPU_HYP_ADMISSION_AUDIT_H
#define VNPU_HYP_ADMISSION_AUDIT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hyp/topology_mapper.h"
#include "sim/types.h"

namespace vnpu::hyp {

/** One admission decision, admitted or not. */
struct AdmissionAuditEntry {
    std::uint64_t seq = 0;      ///< Monotonic request number.
    Tick sim_time = 0;          ///< Simulated tick of the decision.
    int requested_cores = 0;
    MappingStrategy strategy = MappingStrategy::kSimilarTopology;
    bool admitted = false;
    VmId vm = kNoVm;            ///< Assigned VM id (admitted only).
    double ted = 0.0;           ///< Realized topology edit distance.
    Cycles setup_cycles = 0;    ///< Meta-table deployment cost.
    std::uint64_t search_steps = 0;
    FunnelCounters funnel;
    std::string error;          ///< Failure reason (rejected only).
};

/**
 * Fixed-capacity ring of the most recent admission decisions.
 * Entries are addressed oldest-first via `at()`; `total_pushed()`
 * tells how many decisions the ring has absorbed over its lifetime.
 */
class AdmissionAuditRing {
  public:
    static constexpr std::size_t kDefaultCapacity = 256;

    explicit AdmissionAuditRing(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    /** Append a decision; assigns and returns its sequence number. */
    std::uint64_t
    push(AdmissionAuditEntry e)
    {
        e.seq = total_;
        if (ring_.size() < capacity_) {
            ring_.push_back(std::move(e));
        } else {
            // Full: overwrite the oldest entry and advance the head.
            ring_[head_] = std::move(e);
            head_ = (head_ + 1) % capacity_;
        }
        return total_++;
    }

    /** Retained entry count (<= capacity). */
    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }
    /** Decisions ever pushed, including overwritten ones. */
    std::uint64_t total_pushed() const { return total_; }

    /** i-th retained entry, oldest first (0 <= i < size()). */
    const AdmissionAuditEntry&
    at(std::size_t i) const
    {
        return ring_[(head_ + i) % ring_.size()];
    }

    void
    clear()
    {
        ring_.clear();
        head_ = 0;
        total_ = 0;
    }

    /**
     * Resize the ring; existing entries are re-packed oldest-first.
     * @pre capacity > 0
     */
    void set_capacity(std::size_t capacity);

    /** Write retained entries as JSON Lines, oldest first. */
    void dump_jsonl(std::ostream& os) const;

  private:
    std::size_t capacity_;
    std::vector<AdmissionAuditEntry> ring_;
    /** Index of the oldest retained entry (0 until the ring wraps). */
    std::size_t head_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace vnpu::hyp

#endif // VNPU_HYP_ADMISSION_AUDIT_H
