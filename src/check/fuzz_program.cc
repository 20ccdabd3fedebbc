#include "check/fuzz_program.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace tmsim {

namespace {

constexpr Choice<FuzzOpKind> opKindNames[] = {
    {"txread", FuzzOpKind::TxRead},
    {"txadd", FuzzOpKind::TxAdd},
    {"release", FuzzOpKind::Release},
    {"immread", FuzzOpKind::ImmRead},
    {"immstore", FuzzOpKind::ImmStore},
    {"immstoreid", FuzzOpKind::ImmStoreIdem},
    {"exec", FuzzOpKind::Exec},
    {"hcommit", FuzzOpKind::HandlerCommit},
    {"hviolation", FuzzOpKind::HandlerViolation},
    {"habort", FuzzOpKind::HandlerAbort},
    {"abort", FuzzOpKind::Abort},
    {"nest", FuzzOpKind::Nest},
};

constexpr Choice<ThreadOpKind> threadOpKindNames[] = {
    {"runtx", ThreadOpKind::RunTx},
    {"nakedload", ThreadOpKind::NakedLoad},
    {"nakedstore", ThreadOpKind::NakedStore},
    {"work", ThreadOpKind::Work},
};

constexpr Choice<Region> regionNames[] = {
    {"shared", Region::Shared},   {"open", Region::Open},
    {"naked", Region::Naked},     {"private", Region::Private},
    {"scratch", Region::Scratch},
};

bool
fail(std::string* err, const std::string& msg)
{
    if (err)
        *err = msg;
    return false;
}

} // namespace

std::string
FuzzProgram::serialize() const
{
    std::ostringstream os;
    os << "tmsim-fuzz-replay v1\n";
    os << "seed " << seed << "\n";
    os << "slots " << slotsPerRegion << "\n";
    os << "word-granularity " << (wordGranularity ? 1 : 0) << "\n";
    os << "contention " << contentionPolicyName(contention) << "\n";
    // Only emitted when bounded, so unbounded replay files stay
    // byte-identical to the pre-capacity format.
    if (rsetCap > 0 || wsetCap > 0)
        os << "capacity " << rsetCap << " " << wsetCap << " "
           << capacityModeName(capacityMode) << "\n";
    os << "inject " << injectHiddenStoreAfter << "\n";
    os << "txs " << txs.size() << "\n";
    for (size_t i = 0; i < txs.size(); ++i) {
        const FuzzTx& tx = txs[i];
        os << "tx " << i << " " << (tx.open ? "open" : "closed") << " "
           << tx.ops.size() << "\n";
        for (const FuzzOp& op : tx.ops) {
            os << "op " << choiceName(opKindNames, op.kind) << " "
               << choiceName(regionNames, op.region) << " " << op.slot << " "
               << op.value << " " << op.child << "\n";
        }
    }
    os << "threads " << threads.size() << "\n";
    for (size_t t = 0; t < threads.size(); ++t) {
        os << "thread " << t << " " << threads[t].size() << "\n";
        for (const ThreadOp& op : threads[t]) {
            os << "top " << choiceName(threadOpKindNames, op.kind) << " " << op.tx
               << " " << choiceName(regionNames, op.region) << " " << op.slot << " "
               << op.value << "\n";
        }
    }
    return os.str();
}

bool
FuzzProgram::parse(const std::string& text, FuzzProgram& out,
                   std::string* err)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != "tmsim-fuzz-replay v1")
        return fail(err, "bad header (expected 'tmsim-fuzz-replay v1')");

    FuzzProgram p;
    auto expectKeyed = [&](const char* key, auto& value) -> bool {
        if (!std::getline(is, line))
            return false;
        std::istringstream ls(line);
        std::string k;
        ls >> k >> value;
        return !ls.fail() && k == key;
    };

    long long inject = -1;
    int wordGran = 0;
    size_t nTxs = 0, nThreads = 0;
    if (!expectKeyed("seed", p.seed))
        return fail(err, "missing seed");
    if (!expectKeyed("slots", p.slotsPerRegion) || p.slotsPerRegion < 1 ||
        p.slotsPerRegion > 64)
        return fail(err, "bad slots");
    if (!expectKeyed("word-granularity", wordGran))
        return fail(err, "missing word-granularity");
    // Optional contention-policy line (absent = requester).
    if (!std::getline(is, line))
        return fail(err, "missing inject");
    {
        std::istringstream ls(line);
        std::string k, v;
        ls >> k >> v;
        if (k == "older-wins") {
            return fail(err, "the older-wins line was removed; write "
                             "'contention timestamp' for older-wins 1, "
                             "or drop it: " + line);
        }
        if (!ls.fail() && k == "contention") {
            if (!choiceValue(contentionPolicyNames, v, p.contention))
                return fail(err, "bad contention policy: " + line);
            if (!std::getline(is, line))
                return fail(err, "missing inject");
        }
    }
    // Optional capacity line (absent in unbounded replay files). The
    // keyword is matched first and the payload validated separately:
    // a mangled capacity line must be reported as such, not fall
    // through to be misparsed as the inject line.
    bool sawCapacity = false;
    for (;;) {
        std::istringstream ls(line);
        std::string k;
        ls >> k;
        if (k != "capacity")
            break;
        if (sawCapacity)
            return fail(err, "duplicate capacity line: " + line);
        sawCapacity = true;
        int rcap = 0, wcap = 0;
        std::string mode, extra;
        ls >> rcap >> wcap >> mode;
        if (ls.fail() || mode.empty()) {
            return fail(err, "malformed capacity line (expected "
                             "'capacity RCAP WCAP MODE'): " + line);
        }
        if (ls >> extra)
            return fail(err, "trailing junk on capacity line: " + line);
        if (rcap < 0 || wcap < 0 || rcap > 100000 || wcap > 100000) {
            return fail(err, "capacity bounds out of range "
                             "[0, 100000]: " + line);
        }
        if (!choiceValue(capacityModeNames, mode, p.capacityMode))
            return fail(err, "bad capacity mode: " + line);
        p.rsetCap = rcap;
        p.wsetCap = wcap;
        if (!std::getline(is, line))
            return fail(err, "missing inject");
    }
    {
        std::istringstream ls(line);
        std::string k;
        ls >> k >> inject;
        if (ls.fail() || k != "inject")
            return fail(err, "missing inject");
    }
    if (!expectKeyed("txs", nTxs) || nTxs > 10000)
        return fail(err, "bad txs count");
    p.wordGranularity = wordGran != 0;
    p.injectHiddenStoreAfter = static_cast<int>(inject);

    p.txs.resize(nTxs);
    for (size_t i = 0; i < nTxs; ++i) {
        if (!std::getline(is, line))
            return fail(err, "truncated tx header");
        std::istringstream ls(line);
        std::string tag, kind;
        size_t idx = 0, nOps = 0;
        ls >> tag >> idx >> kind >> nOps;
        if (ls.fail() || tag != "tx" || idx != i || nOps > 10000)
            return fail(err, "bad tx header: " + line);
        p.txs[i].open = kind == "open";
        if (!p.txs[i].open && kind != "closed")
            return fail(err, "bad tx kind: " + kind);
        p.txs[i].ops.resize(nOps);
        for (size_t j = 0; j < nOps; ++j) {
            if (!std::getline(is, line))
                return fail(err, "truncated op list");
            std::istringstream os2(line);
            std::string otag, okind, oregion;
            FuzzOp op;
            os2 >> otag >> okind >> oregion >> op.slot >> op.value >>
                op.child;
            if (os2.fail() || otag != "op" ||
                !choiceValue(opKindNames, okind, op.kind) ||
                !choiceValue(regionNames, oregion, op.region)) {
                return fail(err, "bad op: " + line);
            }
            p.txs[i].ops[j] = op;
        }
    }

    if (!expectKeyed("threads", nThreads) || nThreads < 1 || nThreads > 64)
        return fail(err, "bad threads count");
    p.threads.resize(nThreads);
    for (size_t t = 0; t < nThreads; ++t) {
        if (!std::getline(is, line))
            return fail(err, "truncated thread header");
        std::istringstream ls(line);
        std::string tag;
        size_t idx = 0, nOps = 0;
        ls >> tag >> idx >> nOps;
        if (ls.fail() || tag != "thread" || idx != t || nOps > 10000)
            return fail(err, "bad thread header: " + line);
        p.threads[t].resize(nOps);
        for (size_t j = 0; j < nOps; ++j) {
            if (!std::getline(is, line))
                return fail(err, "truncated thread ops");
            std::istringstream os2(line);
            std::string otag, okind, oregion;
            ThreadOp op;
            os2 >> otag >> okind >> op.tx >> oregion >> op.slot >>
                op.value;
            if (os2.fail() || otag != "top" ||
                !choiceValue(threadOpKindNames, okind, op.kind) ||
                !choiceValue(regionNames, oregion, op.region)) {
                return fail(err, "bad thread op: " + line);
            }
            p.threads[t][j] = op;
        }
    }

    // Referential sanity: tx/child indices and slots must be in range.
    auto txOk = [&](int idx) {
        return idx >= 0 && idx < static_cast<int>(p.txs.size());
    };
    for (size_t i = 0; i < p.txs.size(); ++i) {
        const FuzzTx& tx = p.txs[i];
        for (const FuzzOp& op : tx.ops) {
            // Children must have strictly larger indices (the generator
            // appends them after the parent): keeps the tx graph a DAG
            // so the interpreter cannot recurse forever on a crafted
            // replay file.
            if (op.kind == FuzzOpKind::Nest &&
                (!txOk(op.child) || op.child <= static_cast<int>(i))) {
                return fail(err, "nest child out of range");
            }
            if (op.slot < 0 || op.slot >= p.slotsPerRegion)
                return fail(err, "op slot out of range");
        }
    }
    for (const auto& tops : p.threads) {
        for (const ThreadOp& op : tops) {
            if (op.kind == ThreadOpKind::RunTx && !txOk(op.tx))
                return fail(err, "thread tx out of range");
            if (op.slot < 0 || op.slot >= p.slotsPerRegion)
                return fail(err, "thread op slot out of range");
        }
    }

    out = std::move(p);
    return true;
}

FuzzProgram
loadReplay(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open replay file '%s'", path.c_str());
    std::stringstream buf;
    buf << is.rdbuf();
    FuzzProgram p;
    std::string err;
    if (!FuzzProgram::parse(buf.str(), p, &err))
        fatal("malformed replay file: %s", err.c_str());
    return p;
}

std::string
writeReplay(const FuzzProgram& p, const std::string& dir,
            const std::string& name)
{
    const std::string path = dir + "/" + name + ".replay";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write replay file %s\n",
                     path.c_str());
        return {};
    }
    os << p.serialize();
    return path;
}

int
replayVerdict(bool failed, const std::string& where,
              const std::string& message, const char* pass_line,
              bool expect_fail)
{
    if (failed) {
        std::printf("replay FAILS [%s]: %s\n", where.c_str(),
                    message.c_str());
        return expect_fail ? 0 : 1;
    }
    std::printf("%s\n", pass_line);
    if (expect_fail) {
        std::printf("error: --expect-fail but the replay no "
                    "longer fails\n");
        return 1;
    }
    return 0;
}

} // namespace tmsim
