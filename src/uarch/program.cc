#include "uarch/program.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace suit::uarch {

using suit::isa::FaultableKind;
using suit::util::Rng;

const char *
toString(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
        return "IntAlu";
      case OpClass::IntMul:
        return "IntMul";
      case OpClass::IntDiv:
        return "IntDiv";
      case OpClass::FpAlu:
        return "FpAlu";
      case OpClass::FpMul:
        return "FpMul";
      case OpClass::FpDiv:
        return "FpDiv";
      case OpClass::SimdAlu:
        return "SimdAlu";
      case OpClass::Aes:
        return "Aes";
      case OpClass::Load:
        return "Load";
      case OpClass::Store:
        return "Store";
      case OpClass::Branch:
        return "Branch";
      case OpClass::NumClasses:
        break;
    }
    return "?";
}

ProgramGenerator::ProgramGenerator(std::uint64_t seed) : seed_(seed) {}

namespace {

OpClass
sampleClass(const ProgramMix &mix, double total, Rng &rng)
{
    double u = rng.nextDouble() * total;
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
        u -= mix.weights[i];
        if (u < 0.0)
            return static_cast<OpClass>(i);
    }
    return OpClass::IntAlu;
}

/** Map a SIMD/AES/IMUL op to its Table 1 faultable class. */
std::optional<FaultableKind>
faultableKindFor(OpClass op, Rng &rng)
{
    switch (op) {
      case OpClass::IntMul:
        return FaultableKind::IMUL;
      case OpClass::Aes:
        return FaultableKind::AESENC;
      case OpClass::SimdAlu: {
        static constexpr FaultableKind kSimdKinds[] = {
            FaultableKind::VOR,    FaultableKind::VXOR,
            FaultableKind::VAND,   FaultableKind::VANDN,
            FaultableKind::VPADDQ, FaultableKind::VPCMP,
            FaultableKind::VPMAX,  FaultableKind::VPSRAD,
        };
        return kSimdKinds[rng.nextBelow(std::size(kSimdKinds))];
      }
      default:
        return std::nullopt;
    }
}

} // namespace

Program
ProgramGenerator::generate(const ProgramMix &mix,
                           std::size_t count) const
{
    Rng rng(seed_ ^ suit::util::fnv1a64(mix.name.data(), mix.name.size()));

    double total = 0.0;
    for (double w : mix.weights)
        total += w;
    SUIT_ASSERT(total > 0.0, "program mix '%s' has no weights",
                mix.name.c_str());

    Program prog;
    prog.name = mix.name;
    prog.codeFootprintBytes = mix.codeFootprintBytes;
    prog.insts.reserve(count);
    const std::uint64_t code_sites =
        std::max<std::uint64_t>(1, mix.codeFootprintBytes / 4);

    // Ring of recently written registers for dependency sampling.
    std::int8_t recent_dst[kNumArchRegs];
    for (int i = 0; i < kNumArchRegs; ++i)
        recent_dst[i] = static_cast<std::int8_t>(i);
    int recent_head = 0;
    std::int8_t last_mul_dst = -1;
    int mul_chain_left = 0;
    const double chain_continue =
        mix.mulChainLen <= 1.0 ? 0.0 : 1.0 - 1.0 / mix.mulChainLen;
    std::uint64_t stream_addr = 0;

    auto pick_src = [&]() -> std::int8_t {
        // Stable operands (constants, invariants) carry no timing
        // dependency at all.
        if (rng.nextBool(mix.independentSrcRate))
            return -1;
        // Geometric walk back through recent destinations.
        int back = 0;
        while (back < kNumArchRegs - 1 &&
               rng.nextDouble() > 1.0 / mix.depLocality)
            ++back;
        const int idx =
            (recent_head - 1 - back + 2 * kNumArchRegs) % kNumArchRegs;
        return recent_dst[idx];
    };

    for (std::size_t n = 0; n < count; ++n) {
        Inst inst;
        if (mul_chain_left > 0) {
            inst.op = OpClass::IntMul;
            --mul_chain_left;
        } else {
            inst.op = sampleClass(mix, total, rng);
            if (inst.op == OpClass::IntMul) {
                // Expand into a dependent multiply chain.
                mul_chain_left = 0;
                while (rng.nextDouble() < chain_continue)
                    ++mul_chain_left;
            }
        }

        switch (inst.op) {
          case OpClass::Branch: {
            inst.src1 = pick_src();
            if (rng.nextBool(mix.noisyBranchRate)) {
                // Data-dependent branch: unpredictable noise.
                inst.taken = rng.nextBool(0.5);
            } else {
                // Site-deterministic outcome: the same static branch
                // behaves consistently across loop iterations, so
                // the predictor learns it.
                std::uint64_t site = n % code_sites;
                site = site * 0x9E3779B97F4A7C15ULL;
                inst.taken =
                    static_cast<double>(site >> 40) / (1 << 24) <
                    mix.takenRate;
            }
            break;
          }
          case OpClass::Store:
            inst.src1 = pick_src();
            inst.src2 = pick_src();
            break;
          case OpClass::Load:
            inst.src1 = pick_src();
            inst.dst = static_cast<std::int8_t>(
                rng.nextBelow(kNumArchRegs));
            break;
          default:
            inst.src1 = pick_src();
            inst.src2 = pick_src();
            inst.dst = static_cast<std::int8_t>(
                rng.nextBelow(kNumArchRegs));
            break;
        }

        if (inst.op == OpClass::IntMul && last_mul_dst >= 0 &&
            mul_chain_left > 0) {
            inst.src1 = last_mul_dst; // dependent multiply chain
        }

        if (inst.isMem()) {
            if (rng.nextBool(mix.streamingRate)) {
                stream_addr = (stream_addr + 8) % mix.footprintBytes;
                inst.addr = stream_addr;
                inst.streamingHint = true;
            } else if (rng.nextBool(mix.hotRate)) {
                // Temporal locality: most irregular accesses hit a
                // small hot working set (stack, top of heap).
                inst.addr = rng.nextBelow(std::min(
                                mix.hotSetBytes,
                                mix.footprintBytes)) &
                            ~7ULL;
            } else {
                inst.addr =
                    rng.nextBelow(mix.footprintBytes) & ~7ULL;
            }
        }

        inst.faultable = faultableKindFor(inst.op, rng);

        if (inst.dst >= 0) {
            recent_dst[recent_head] = inst.dst;
            recent_head = (recent_head + 1) % kNumArchRegs;
        }
        if (inst.op == OpClass::IntMul)
            last_mul_dst = inst.dst;

        prog.insts.push_back(inst);
    }
    return prog;
}

namespace {

ProgramMix
baseMix(const char *name)
{
    ProgramMix m;
    m.name = name;
    auto w = [&m](OpClass op) -> double & {
        return m.weights[static_cast<std::size_t>(op)];
    };
    w(OpClass::IntAlu) = 0.42;
    w(OpClass::Load) = 0.24;
    w(OpClass::Store) = 0.10;
    w(OpClass::Branch) = 0.16;
    // The IMUL *density* is weight * mulChainLen (Sec. 6.1: 0.07 %
    // on average over SPEC); typical code has isolated multiplies,
    // which the out-of-order window hides almost fully.
    w(OpClass::IntMul) = 0.0007;
    w(OpClass::IntDiv) = 0.0005;
    return m;
}

} // namespace

ProgramMix
specIntLikeMix()
{
    ProgramMix m = baseMix("spec-int-like");
    m.weights[static_cast<std::size_t>(OpClass::SimdAlu)] = 0.04;
    m.weights[static_cast<std::size_t>(OpClass::IntAlu)] += 0.03;
    return m;
}

ProgramMix
specFpLikeMix()
{
    ProgramMix m = baseMix("spec-fp-like");
    auto w = [&m](OpClass op) -> double & {
        return m.weights[static_cast<std::size_t>(op)];
    };
    w(OpClass::Branch) = 0.06;
    w(OpClass::FpAlu) = 0.18;
    w(OpClass::FpMul) = 0.12;
    w(OpClass::FpDiv) = 0.004;
    w(OpClass::SimdAlu) = 0.08;
    m.depLocality = 10.0;
    m.footprintBytes = 8 << 20;
    return m;
}

ProgramMix
x264LikeMix()
{
    ProgramMix m = baseMix("x264-like");
    auto w = [&m](OpClass op) -> double & {
        return m.weights[static_cast<std::size_t>(op)];
    };
    m.mulChainLen = 32.0; // cost-tree multiply chains
    w(OpClass::IntMul) = 0.0099 / m.mulChainLen; // 0.99 % IMUL total
    w(OpClass::SimdAlu) = 0.14;
    // Encoder loops: few, well-predicted branches, blocked streaming
    // access to the frame data -> high baseline IPC (gem5: ~2.3).
    w(OpClass::Branch) = 0.07;
    m.noisyBranchRate = 0.015;
    m.depLocality = 5.0;
    m.footprintBytes = 512 << 10;
    m.streamingRate = 0.88;
    m.hotRate = 0.99;
    return m;
}

ProgramMix
memBoundMix()
{
    ProgramMix m = baseMix("mem-bound");
    auto w = [&m](OpClass op) -> double & {
        return m.weights[static_cast<std::size_t>(op)];
    };
    w(OpClass::Load) = 0.38;
    w(OpClass::IntAlu) = 0.32;
    m.footprintBytes = 64 << 20; // far beyond the LLC
    m.streamingRate = 0.15;      // pointer chasing
    m.hotRate = 0.25;            // little temporal locality
    m.independentSrcRate = 0.35; // address chains
    return m;
}

ProgramMix
branchyMix()
{
    ProgramMix m = baseMix("branchy");
    m.weights[static_cast<std::size_t>(OpClass::Branch)] = 0.24;
    m.noisyBranchRate = 0.18;
    return m;
}

ProgramMix
aesServiceMix()
{
    ProgramMix m = baseMix("aes-service");
    auto w = [&m](OpClass op) -> double & {
        return m.weights[static_cast<std::size_t>(op)];
    };
    w(OpClass::Aes) = 0.07; // 14 AESENC per 16-byte block
    w(OpClass::SimdAlu) = 0.06;
    m.depLocality = 4.0; // AES rounds chain on the state register
    return m;
}

std::vector<ProgramMix>
figure14Mixes()
{
    std::vector<ProgramMix> mixes = {
        specIntLikeMix(), specFpLikeMix(), x264LikeMix(),
        memBoundMix(),    branchyMix(),
    };
    ProgramMix compute = baseMix("compute-dense");
    compute.weights[static_cast<std::size_t>(OpClass::IntAlu)] = 0.60;
    compute.weights[static_cast<std::size_t>(OpClass::Branch)] = 0.08;
    compute.depLocality = 4.0;
    mixes.push_back(compute);

    ProgramMix mul_heavy = baseMix("mul-moderate");
    mul_heavy.mulChainLen = 8.0;
    mul_heavy.weights[static_cast<std::size_t>(OpClass::IntMul)] =
        0.004 / 8.0;
    mixes.push_back(mul_heavy);

    ProgramMix fp_vec = specFpLikeMix();
    fp_vec.name = "fp-vector";
    fp_vec.weights[static_cast<std::size_t>(OpClass::SimdAlu)] = 0.16;
    mixes.push_back(fp_vec);

    return mixes;
}

} // namespace suit::uarch
