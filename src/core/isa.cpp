#include "core/isa.h"

#include <sstream>

namespace vnpu::core {

const char*
to_string(Opcode op)
{
    switch (op) {
      case Opcode::kLoadWeight:  return "load_weight";
      case Opcode::kLoadGlobal:  return "load_global";
      case Opcode::kStoreGlobal: return "store_global";
      case Opcode::kCompute:     return "compute";
      case Opcode::kSend:        return "send";
      case Opcode::kRecv:        return "recv";
      case Opcode::kIterBegin:   return "iter_begin";
      case Opcode::kHalt:        return "halt";
    }
    return "?";
}

Instr
Instr::load_weight(Addr va, std::uint64_t bytes, std::uint32_t chunk)
{
    Instr i;
    i.op = Opcode::kLoadWeight;
    i.chunk = chunk;
    i.va = va;
    i.bytes = bytes;
    return i;
}

Instr
Instr::load_global(Addr va, std::uint64_t bytes, std::uint32_t chunk)
{
    Instr i;
    i.op = Opcode::kLoadGlobal;
    i.chunk = chunk;
    i.va = va;
    i.bytes = bytes;
    return i;
}

Instr
Instr::store_global(Addr va, std::uint64_t bytes)
{
    Instr i;
    i.op = Opcode::kStoreGlobal;
    i.va = va;
    i.bytes = bytes;
    return i;
}

Instr
Instr::matmul(std::int64_t m, std::int64_t k, std::int64_t n)
{
    Instr i;
    i.op = Opcode::kCompute;
    i.dims.kind = ComputeKind::kMatmul;
    i.dims.m = m;
    i.dims.k = k;
    i.dims.n = n;
    return i;
}

Instr
Instr::conv(std::int64_t oh, std::int64_t ow, std::int64_t cin,
            std::int64_t cout, std::int64_t ksize)
{
    Instr i;
    i.op = Opcode::kCompute;
    i.dims.kind = ComputeKind::kConv;
    i.dims.oh = oh;
    i.dims.ow = ow;
    i.dims.cin = cin;
    i.dims.cout = cout;
    i.dims.ksize = ksize;
    return i;
}

Instr
Instr::vector_op(std::int64_t elems)
{
    Instr i;
    i.op = Opcode::kCompute;
    i.dims.kind = ComputeKind::kVector;
    i.dims.elems = elems;
    return i;
}

Instr
Instr::send(CoreId dst, std::uint64_t bytes, int tag)
{
    Instr i;
    i.op = Opcode::kSend;
    i.peer = dst;
    i.bytes = bytes;
    i.tag = tag;
    return i;
}

Instr
Instr::recv(CoreId src, std::uint64_t bytes, int tag)
{
    Instr i;
    i.op = Opcode::kRecv;
    i.peer = src;
    i.bytes = bytes;
    i.tag = tag;
    return i;
}

Instr
Instr::iter_begin()
{
    Instr i;
    i.op = Opcode::kIterBegin;
    return i;
}

Instr
Instr::halt()
{
    Instr i;
    i.op = Opcode::kHalt;
    return i;
}

std::string
Instr::to_string() const
{
    std::ostringstream os;
    os << vnpu::core::to_string(op);
    switch (op) {
      case Opcode::kLoadWeight:
      case Opcode::kLoadGlobal:
      case Opcode::kStoreGlobal:
        os << " va=0x" << std::hex << va << std::dec << " bytes=" << bytes;
        if (chunk != 0)
            os << " chunk=" << chunk;
        break;
      case Opcode::kSend:
        os << " dst=" << peer << " bytes=" << bytes << " tag=" << tag;
        break;
      case Opcode::kRecv:
        os << " src=" << peer << " bytes=" << bytes << " tag=" << tag;
        break;
      case Opcode::kCompute:
        if (dims.kind == ComputeKind::kMatmul) {
            os << " matmul " << dims.m << "x" << dims.k << "x" << dims.n;
        } else if (dims.kind == ComputeKind::kConv) {
            os << " conv " << dims.oh << "x" << dims.ow << " cin="
               << dims.cin << " cout=" << dims.cout << " k=" << dims.ksize;
        } else {
            os << " vector " << dims.elems;
        }
        break;
      default:
        break;
    }
    return os.str();
}

std::uint64_t
program_load_bytes(const Program& prog)
{
    std::uint64_t total = 0;
    for (const Instr& i : prog)
        if (i.op == Opcode::kLoadWeight || i.op == Opcode::kLoadGlobal)
            total += i.bytes;
    return total;
}

std::uint64_t
program_send_bytes(const Program& prog)
{
    std::uint64_t total = 0;
    for (const Instr& i : prog)
        if (i.op == Opcode::kSend)
            total += i.bytes;
    return total;
}

} // namespace vnpu::core
