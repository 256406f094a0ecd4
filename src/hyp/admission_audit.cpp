#include "hyp/admission_audit.h"

#include <algorithm>
#include <ostream>

namespace vnpu::hyp {

void
AdmissionAuditRing::set_capacity(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    // Unload the newest `min(size, capacity)` entries oldest-first,
    // then restart with head at 0; seq numbering is untouched.
    std::vector<AdmissionAuditEntry> kept;
    const std::size_t n = std::min(ring_.size(), capacity);
    kept.reserve(n);
    for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i)
        kept.push_back(at(i));
    capacity_ = capacity;
    ring_ = std::move(kept);
    head_ = 0;
}

namespace {

void
write_json_string(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char* hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

void
AdmissionAuditRing::dump_jsonl(std::ostream& os) const
{
    for (std::size_t i = 0; i < size(); ++i) {
        const AdmissionAuditEntry& e = at(i);
        os << "{\"seq\": " << e.seq << ", \"sim_time\": " << e.sim_time
           << ", \"requested_cores\": " << e.requested_cores
           << ", \"strategy\": \"" << to_string(e.strategy)
           << "\", \"admitted\": " << (e.admitted ? "true" : "false")
           << ", \"vm\": " << e.vm << ", \"ted\": " << e.ted
           << ", \"setup_cycles\": " << e.setup_cycles
           << ", \"search_steps\": " << e.search_steps
           << ", \"funnel\": {";
        const char* sep = "";
        for (const auto& [name, field] : kFunnelFields) {
            os << sep << '"' << name << "\": " << e.funnel.*field;
            sep = ", ";
        }
        os << "}";
        if (!e.error.empty()) {
            os << ", \"error\": ";
            write_json_string(os, e.error);
        }
        os << "}\n";
    }
}

} // namespace vnpu::hyp
