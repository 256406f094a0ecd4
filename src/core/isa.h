/**
 * @file
 * The NPU core instruction set.
 *
 * Programs are straight-line instruction sequences produced by the
 * runtime compiler (IPU-style: the computation graph is lowered to one
 * program per core). Inter-core dataflow uses kSend/kRecv over the NoC;
 * the UVM baseline lowers the same edges to kStoreGlobal/kLoadGlobal
 * pairs through shared memory instead.
 *
 * A streamed load is one instruction: `chunk` > 0 tells the core to
 * issue [va, va+bytes) as consecutive DMA transfers of at most `chunk`
 * bytes, one per step, so each chunk keeps its own transfer, event and
 * `instructions` count without its own slot in the program text
 * (docs/sim_kernel.md, "Program text").
 */

#ifndef VNPU_CORE_ISA_H
#define VNPU_CORE_ISA_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace vnpu::core {

/** Instruction opcodes. */
enum class Opcode : std::uint8_t {
    kLoadWeight,   ///< DMA: global memory -> scratchpad (weights).
    kLoadGlobal,   ///< DMA: global memory -> scratchpad (activations).
    kStoreGlobal,  ///< DMA: scratchpad -> global memory.
    kCompute,      ///< Systolic-array / vector-unit kernel.
    kSend,         ///< NoC transfer to another core (dataflow edge).
    kRecv,         ///< Blocking receive of a matching kSend.
    kIterBegin,    ///< Marks the start of a model iteration.
    kHalt,         ///< End of program.
};

const char* to_string(Opcode op);

/** Compute kernel families. */
enum class ComputeKind : std::uint8_t {
    kMatmul,  ///< m x k @ k x n
    kConv,    ///< 2D convolution (lowered to im2col matmul)
    kVector,  ///< elementwise / reduction on the vector unit
};

/** Dimensions of a compute kernel. */
struct ComputeDims {
    ComputeKind kind = ComputeKind::kMatmul;
    // Matmul
    std::int64_t m = 0, k = 0, n = 0;
    // Conv (output spatial size oh x ow already resolved by the lowerer)
    std::int64_t oh = 0, ow = 0, cin = 0, cout = 0, ksize = 0;
    // Vector
    std::int64_t elems = 0;
};

/** One NPU instruction. */
struct Instr {
    Opcode op = Opcode::kHalt;
    /** DMA bytes per transfer; 0 issues `bytes` as one transfer. */
    std::uint32_t chunk = 0;
    Addr va = 0;              ///< DMA virtual address.
    std::uint64_t bytes = 0;  ///< DMA / NoC payload size.
    CoreId peer = kInvalidCore; ///< kSend dst / kRecv src (core id).
    int tag = 0;              ///< Matches kSend to kRecv.
    ComputeDims dims;         ///< kCompute only.

    // ---- Factories ---------------------------------------------------
    static Instr load_weight(Addr va, std::uint64_t bytes,
                             std::uint32_t chunk = 0);
    static Instr load_global(Addr va, std::uint64_t bytes,
                             std::uint32_t chunk = 0);
    static Instr store_global(Addr va, std::uint64_t bytes);
    static Instr matmul(std::int64_t m, std::int64_t k, std::int64_t n);
    static Instr conv(std::int64_t oh, std::int64_t ow, std::int64_t cin,
                      std::int64_t cout, std::int64_t ksize);
    static Instr vector_op(std::int64_t elems);
    static Instr send(CoreId dst, std::uint64_t bytes, int tag);
    static Instr recv(CoreId src, std::uint64_t bytes, int tag);
    static Instr iter_begin();
    static Instr halt();

    /** Debug rendering, e.g. "send dst=3 bytes=2048 tag=7". */
    std::string to_string() const;
};

// `chunk` sits in the padding after `op`: program text is the bulk of a
// loaded workload's memory.
static_assert(sizeof(Instr) == 112, "Instr must not grow");

/** A per-core program. */
using Program = std::vector<Instr>;

/** Total DMA bytes a program reads from global memory. */
std::uint64_t program_load_bytes(const Program& prog);

/** Total NoC bytes a program sends. */
std::uint64_t program_send_bytes(const Program& prog);

} // namespace vnpu::core

#endif // VNPU_CORE_ISA_H
