#include "check/fuzz_driver.hh"

#include <iterator>
#include <sstream>

#include "check/oracle.hh"

namespace tmsim {

HtmConfig
fuzzConfig(const FuzzProgram& program, const DesignPoint& point)
{
    HtmConfig base;
    base.granularity = program.wordGranularity ? TrackGranularity::Word
                                               : TrackGranularity::Line;
    base.contention = program.contention;
    base.rsetCap = program.rsetCap;
    base.wsetCap = program.wsetCap;
    base.capacityMode = program.capacityMode;
    return point.apply(base);
}

std::vector<FuzzConfig>
fuzzConfigs(const FuzzProgram& program)
{
    std::vector<FuzzConfig> out;
    out.reserve(std::size(designPoints));
    for (const DesignPoint& point : designPoints)
        out.push_back({point.name, fuzzConfig(program, point)});
    return out;
}

FuzzFailure
runProgramAllConfigs(const FuzzProgram& program, Tick max_ticks,
                     StatsRegistry* stats_out)
{
    const std::vector<FuzzConfig> configs = fuzzConfigs(program);
    std::vector<std::pair<Addr, Word>> ref;
    std::string refName;
    bool haveRef = false;

    for (const FuzzConfig& cfg : configs) {
        FuzzInterp interp(program, cfg.htm);
        const ObservedRun run = interp.run(max_ticks, stats_out);
        const OracleVerdict v = checkRun(program, run);
        if (!v.ok)
            return FuzzFailure{true, cfg.name, v.message};
        if (!haveRef) {
            ref = run.finalInvariant;
            refName = cfg.name;
            haveRef = true;
            continue;
        }
        if (run.finalInvariant.size() != ref.size()) {
            return FuzzFailure{true, cfg.name,
                               "invariant snapshot shape differs from " +
                                   refName};
        }
        for (size_t i = 0; i < ref.size(); ++i) {
            if (run.finalInvariant[i] == ref[i])
                continue;
            std::ostringstream os;
            os << "cross-config divergence at 0x" << std::hex
               << ref[i].first << ": " << refName << " finished with 0x"
               << ref[i].second << " but " << cfg.name
               << " finished with 0x" << run.finalInvariant[i].second;
            return FuzzFailure{true, cfg.name, os.str()};
        }
    }
    return FuzzFailure{};
}

namespace {

/** Drop transactions no thread (or surviving nest op) references and
 *  compact indices; child > parent ordering is preserved. */
FuzzProgram
pruneTxs(const FuzzProgram& p)
{
    std::vector<bool> live(p.txs.size(), false);
    // Indices only grow through nest edges, so one ascending pass after
    // seeding the roots reaches every descendant.
    for (const auto& tops : p.threads) {
        for (const ThreadOp& op : tops) {
            if (op.kind == ThreadOpKind::RunTx && op.tx >= 0)
                live[static_cast<size_t>(op.tx)] = true;
        }
    }
    for (size_t i = 0; i < p.txs.size(); ++i) {
        if (!live[i])
            continue;
        for (const FuzzOp& op : p.txs[i].ops) {
            if (op.kind == FuzzOpKind::Nest && op.child >= 0)
                live[static_cast<size_t>(op.child)] = true;
        }
    }

    std::vector<int> remap(p.txs.size(), -1);
    FuzzProgram out = p;
    out.txs.clear();
    for (size_t i = 0; i < p.txs.size(); ++i) {
        if (!live[i])
            continue;
        remap[i] = static_cast<int>(out.txs.size());
        out.txs.push_back(p.txs[i]);
    }
    for (FuzzTx& tx : out.txs) {
        for (FuzzOp& op : tx.ops) {
            if (op.kind == FuzzOpKind::Nest)
                op.child = remap[static_cast<size_t>(op.child)];
        }
    }
    for (auto& tops : out.threads) {
        for (ThreadOp& op : tops) {
            if (op.kind == ThreadOpKind::RunTx)
                op.tx = remap[static_cast<size_t>(op.tx)];
        }
    }
    return out;
}

} // namespace

FuzzProgram
shrinkProgram(const FuzzProgram& program, int max_runs, Tick max_ticks)
{
    FuzzProgram best = program;
    int budget = max_runs;
    auto stillFails = [&](const FuzzProgram& cand) {
        if (budget <= 0)
            return false;
        --budget;
        return runProgramAllConfigs(cand, max_ticks).failed;
    };

    bool progress = true;
    while (progress && budget > 0) {
        progress = false;

        // Drop whole threads, highest index first (keep at least one).
        for (int t = best.numThreads() - 1;
             t >= 0 && best.numThreads() > 1; --t) {
            FuzzProgram cand = best;
            cand.threads.erase(cand.threads.begin() + t);
            if (stillFails(cand)) {
                best = std::move(cand);
                progress = true;
            }
        }

        // Drop individual top-level thread ops, last first.
        for (size_t t = 0; t < best.threads.size(); ++t) {
            for (int i = static_cast<int>(best.threads[t].size()) - 1;
                 i >= 0; --i) {
                FuzzProgram cand = best;
                cand.threads[t].erase(cand.threads[t].begin() + i);
                if (stillFails(cand)) {
                    best = std::move(cand);
                    progress = true;
                }
            }
        }

        // Drop individual transaction ops, last first. Removing a Nest
        // op merely strands the child tx; pruneTxs collects it below.
        for (size_t x = 0; x < best.txs.size(); ++x) {
            for (int i = static_cast<int>(best.txs[x].ops.size()) - 1;
                 i >= 0; --i) {
                FuzzProgram cand = best;
                cand.txs[x].ops.erase(cand.txs[x].ops.begin() + i);
                if (stillFails(cand)) {
                    best = std::move(cand);
                    progress = true;
                }
            }
        }
    }
    return pruneTxs(best);
}

} // namespace tmsim
