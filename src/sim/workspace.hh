/**
 * @file
 * Per-worker scratch for allocation-free domain evaluation.
 *
 * A SimWorkspace owns every buffer one domain evaluation needs: the
 * reusable DomainSimulator (whose SoA rows, core table, strategy slot
 * and state log all retain their capacity across resets), the trace
 * pins and core assignments runWorkload() builds per domain, and a
 * DomainResult scratch whose vectors and strings are rewritten in
 * place, plus the fleet's arrival-delta column store.  After the
 * first domain of a given shape has warmed the buffers, evaluating
 * further domains performs no heap allocation —
 * the suit_bench_json harness asserts exactly that when the
 * SUIT_ALLOC_COUNT hook is compiled in.  The column store keeps its
 * buffers across key changes too, so it stops allocating once it
 * has held the largest key-run's columns.
 *
 * Ownership and threading: runtime::Session holds one workspace per
 * ThreadPool worker (plus one for the session thread), and each
 * worker only ever touches its own slot, so workspaces need no
 * internal synchronisation.  A workspace is scratch, not state:
 * results must be consumed (copied or accumulated) before the next
 * runWorkload()/runInto() call on the same workspace overwrites
 * them.  Reuse is bit-identical by construction — DomainSimulator::
 * reset() re-establishes exactly the state a fresh construction
 * would, and the workspace-reuse golden tests compare serialized
 * results byte for byte.
 */

#ifndef SUIT_SIM_WORKSPACE_HH
#define SUIT_SIM_WORKSPACE_HH

#include <memory>
#include <vector>

#include "sim/domain_sim.hh"

namespace suit::sim {

/**
 * Reusable per-worker buffers for domain evaluation.  Cache-line
 * aligned so a workspace shares no line with another worker's data:
 * the simulator's members are written on every event-loop step.
 * Unaligned, removing one simulator member shifted the heap layout
 * enough to cost ~15 % more CPU on a 4-worker single-core sweep
 * (DESIGN.md, "Fast-path ablation").
 */
struct alignas(64) SimWorkspace
{
    /** The reusable simulator; reset() rebinds it per domain. */
    DomainSimulator sim;
    /** Trace pins of the current domain (keep traces alive). */
    std::vector<std::shared_ptr<const suit::trace::Trace>> pinned;
    /** Core assignments of the current domain. */
    std::vector<CoreWork> work;
    /** Result scratch, overwritten by every evaluation. */
    DomainResult result;
    /**
     * Arrival-delta columns of the current key-run.  Only the fleet
     * binds them (SimConfig::arrivalColumns), clearing the store at
     * each key change while `pinned` keeps that key's traces alive,
     * so no column outlives its trace.  Sweeps and the single-run
     * tools leave it empty: their grids hold many traces per worker,
     * whose columns would cost more memory than the divides cost
     * time (DESIGN.md, "Arrival-delta columns").
     */
    ArrivalColumns columns;
};

} // namespace suit::sim

#endif // SUIT_SIM_WORKSPACE_HH
