#include "uarch/o3_model.hh"

#include <algorithm>

#include "util/logging.hh"

namespace suit::uarch {

using Cycle = std::uint64_t;

std::array<FuConfig, kNumOpClasses>
CoreConfig::defaultFuTable()
{
    std::array<FuConfig, kNumOpClasses> fus{};
    auto set = [&fus](OpClass op, FuConfig fu) {
        fus[static_cast<std::size_t>(op)] = fu;
    };
    set(OpClass::IntAlu, {4, 1, true});
    set(OpClass::IntMul, {1, 3, true}); // 3 cycles stock (Sec. 2.3)
    set(OpClass::IntDiv, {1, 20, false});
    set(OpClass::FpAlu, {2, 3, true});
    set(OpClass::FpMul, {2, 4, true});
    set(OpClass::FpDiv, {1, 12, false});
    set(OpClass::SimdAlu, {2, 2, true});
    set(OpClass::Aes, {1, 4, true});
    set(OpClass::Load, {2, 0, true});  // latency from the caches
    set(OpClass::Store, {1, 1, true});
    set(OpClass::Branch, {2, 1, true});
    return fus;
}

void
CoreConfig::setImulLatency(int cycles)
{
    SUIT_ASSERT(cycles >= 1, "IMUL latency must be >= 1");
    fus[static_cast<std::size_t>(OpClass::IntMul)].latency = cycles;
}

O3Model::O3Model(const CoreConfig &config)
    : cfg_(config), mem_(config.mem)
{
}

void
O3Model::setDisabledSet(suit::isa::FaultableSet set)
{
    disabled_ = set;
}

void
O3Model::setTrapHandler(TrapHandler handler)
{
    handler_ = std::move(handler);
}

void
O3Model::setAlarmHandler(AlarmHandler handler)
{
    alarmHandler_ = std::move(handler);
}

namespace {

/** Ring buffer of the last N cycle stamps (resource windows). */
class Window
{
  public:
    explicit Window(std::size_t size) : buf_(std::max<std::size_t>(
                                                 size, 1),
                                             0)
    {
    }

    /** Stamp of the entry `size` slots back. */
    Cycle oldest() const { return buf_[head_]; }

    /** Record the next stamp. */
    void
    push(Cycle c)
    {
        buf_[head_] = c;
        head_ = (head_ + 1) % buf_.size();
    }

  private:
    std::vector<Cycle> buf_;
    std::size_t head_ = 0;
};

} // namespace

CoreStats
O3Model::run(const Program &program)
{
    CoreStats stats;

    // Per-architectural-register readiness (renaming removes all
    // WAR/WAW hazards; a linear trace only needs the RAW chain).
    std::array<Cycle, kNumArchRegs> reg_ready{};

    // Resource windows.
    Window fetch_bw(static_cast<std::size_t>(cfg_.fetchWidth));
    Window dispatch_bw(static_cast<std::size_t>(cfg_.decodeWidth));
    Window issue_bw(static_cast<std::size_t>(cfg_.issueWidth));
    Window commit_bw(static_cast<std::size_t>(cfg_.commitWidth));
    Window rob(static_cast<std::size_t>(cfg_.robSize));
    Window iq(static_cast<std::size_t>(cfg_.iqSize));
    Window lsq(static_cast<std::size_t>(cfg_.lsqSize));

    // Functional-unit servers: next-free cycle per unit.
    std::array<std::vector<Cycle>, kNumOpClasses> fu_free;
    for (std::size_t c = 0; c < kNumOpClasses; ++c)
        fu_free[c].assign(
            static_cast<std::size_t>(std::max(1, cfg_.fus[c].count)),
            0);

    Cycle fetch_ready = 0;     //!< earliest next fetch (redirects)
    Cycle last_commit = 0;     //!< latest commit stamp seen
    Cycle prev_commit_inorder = 0;
    // The SUIT deadline alarm (count-down with touch semantics).
    bool alarm_armed = false;
    Cycle alarm_at = 0;
    Cycle alarm_reload = 0;
    // The touch set: what the MSR disables on the efficient curve
    // (the hardened IMUL is *not* in it).
    const suit::isa::FaultableSet alarm_touch =
        suit::isa::FaultableSet::suitTrapSet();
    const std::uint64_t code_sites =
        std::max<std::uint64_t>(1, program.codeFootprintBytes / 4);

    const std::size_t n = program.insts.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Inst &inst = program.insts[i];
        ++stats.classCounts[static_cast<std::size_t>(inst.op)];

        // Deadline alarm: fire before this instruction if the
        // count-down ran out (approximated at commit granularity).
        if (alarm_armed && last_commit >= alarm_at) {
            alarm_armed = false;
            if (alarmHandler_)
                disabled_ = alarmHandler_(last_commit);
        }

        // ---- Fetch ---------------------------------------------
        const std::uint64_t pc = 0x400000 + (i % code_sites) * 4;
        Cycle fetch = std::max(fetch_ready, fetch_bw.oldest() + 1);
        // Instruction cache: charge the line fill on a miss.
        const int ic_lat = mem_.instAccess(pc);
        if (ic_lat > cfg_.mem.l1i.hitLatency)
            fetch += static_cast<Cycle>(ic_lat);
        fetch_bw.push(fetch);

        // ---- Dispatch (rename + ROB/IQ/LSQ allocation) ----------
        Cycle dispatch = std::max(fetch + 1, dispatch_bw.oldest() + 1);
        dispatch = std::max(dispatch, rob.oldest());
        dispatch = std::max(dispatch, iq.oldest());
        if (inst.isMem())
            dispatch = std::max(dispatch, lsq.oldest());

        bool emulated_in_trap = false;
        Cycle trap_done = 0;
        if (inst.faultable && disabled_.contains(*inst.faultable)) {
            // Precise #DO: the disabled opcode must not execute,
            // speculatively or otherwise.  Drain everything older,
            // then run the handler.
            ++stats.traps;
            SUIT_ASSERT(handler_,
                        "#DO raised with no trap handler installed");
            const Cycle drained = std::max(dispatch, last_commit);
            const UarchTrapAction action =
                handler_(*inst.faultable, static_cast<std::uint64_t>(i),
                         drained);
            trap_done = drained +
                        static_cast<Cycle>(cfg_.trapPenalty) +
                        action.extraCycles;
            disabled_ = action.newDisabledSet;
            if (action.armAlarmCycles > 0) {
                alarm_armed = true;
                alarm_reload = action.armAlarmCycles;
                alarm_at = trap_done + alarm_reload;
            }
            if (action.emulate) {
                emulated_in_trap = true;
                ++stats.emulated;
            }
            dispatch = trap_done;
            // The front end restarts behind the trap.
            fetch_ready = std::max(fetch_ready, trap_done);
        }
        dispatch_bw.push(dispatch);

        // ---- Issue + execute ------------------------------------
        Cycle complete;
        if (emulated_in_trap) {
            // The handler produced the architectural result; the
            // value is available when the trap path finishes.
            complete = dispatch;
            if (inst.dst >= 0)
                reg_ready[static_cast<std::size_t>(inst.dst)] =
                    complete;
            iq.push(dispatch);
        } else {
            Cycle ready = dispatch;
            if (inst.src1 >= 0)
                ready = std::max(
                    ready,
                    reg_ready[static_cast<std::size_t>(inst.src1)]);
            if (inst.src2 >= 0)
                ready = std::max(
                    ready,
                    reg_ready[static_cast<std::size_t>(inst.src2)]);

            // Functional unit: earliest-free server.
            auto &servers =
                fu_free[static_cast<std::size_t>(inst.op)];
            auto best = std::min_element(servers.begin(),
                                         servers.end());
            Cycle issue = std::max(ready, *best);
            issue = std::max(issue, issue_bw.oldest() + 1);
            issue_bw.push(issue);

            const FuConfig &fu =
                cfg_.fus[static_cast<std::size_t>(inst.op)];
            int latency = fu.latency;
            if (inst.op == OpClass::Load) {
                latency = mem_.dataAccess(inst.addr);
                if (cfg_.stridePrefetcher && inst.streamingHint) {
                    // The stride prefetcher issued the fill ahead of
                    // time; the demand access hits.
                    latency = cfg_.mem.l1d.hitLatency;
                }
            } else if (inst.op == OpClass::Store) {
                (void)mem_.dataAccess(inst.addr); // fills the line
            }

            *best = issue + (fu.pipelined
                                 ? 1
                                 : static_cast<Cycle>(latency));
            complete = issue + static_cast<Cycle>(latency);

            if (inst.dst >= 0)
                reg_ready[static_cast<std::size_t>(inst.dst)] =
                    complete;

            // ---- Branches ---------------------------------------
            if (inst.isBranch()) {
                ++stats.branches;
                const bool predicted = bp_.predict(pc);
                bp_.update(pc, inst.taken);
                if (predicted != inst.taken) {
                    ++stats.mispredicts;
                    // Redirect: fetch resumes after resolution plus
                    // the front-end refill.
                    fetch_ready = std::max(
                        fetch_ready,
                        complete + static_cast<Cycle>(
                                       cfg_.redirectPenalty));
                }
            }

            iq.push(issue);
        }

        // Touch: executing an instruction that would be disabled on
        // the efficient curve restarts the count-down (Sec. 4.1).
        if (alarm_armed && inst.faultable &&
            alarm_touch.contains(*inst.faultable)) {
            alarm_at = complete + alarm_reload;
        }

        // ---- Commit (in order) ----------------------------------
        Cycle commit = std::max(complete + 1, prev_commit_inorder);
        commit = std::max(commit, commit_bw.oldest() + 1);
        commit_bw.push(commit);
        prev_commit_inorder = commit;
        last_commit = std::max(last_commit, commit);
        // ROB and LSQ entries free at commit.
        rob.push(commit);
        if (inst.isMem())
            lsq.push(commit);

        ++stats.instructions;
        if (inst.op == OpClass::Load)
            ++stats.loads;
        else if (inst.op == OpClass::Store)
            ++stats.stores;
    }

    stats.cycles = last_commit;
    stats.l1dMisses = mem_.l1d().misses();
    stats.llcMisses = mem_.llc().misses();
    return stats;
}

CoreStats
runMixAtImulLatency(const ProgramMix &mix, std::size_t count,
                    int imul_latency, std::uint64_t seed)
{
    CoreConfig cfg;
    cfg.setImulLatency(imul_latency);
    O3Model core(cfg);
    const Program prog = ProgramGenerator(seed).generate(mix, count);
    return core.run(prog);
}

} // namespace suit::uarch
