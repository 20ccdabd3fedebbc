#include "check/fuzz_program.hh"

#include <sstream>

namespace tmsim {

namespace {

const char*
opKindName(FuzzOpKind k)
{
    switch (k) {
    case FuzzOpKind::TxRead: return "txread";
    case FuzzOpKind::TxAdd: return "txadd";
    case FuzzOpKind::Release: return "release";
    case FuzzOpKind::ImmRead: return "immread";
    case FuzzOpKind::ImmStore: return "immstore";
    case FuzzOpKind::ImmStoreIdem: return "immstoreid";
    case FuzzOpKind::Exec: return "exec";
    case FuzzOpKind::HandlerCommit: return "hcommit";
    case FuzzOpKind::HandlerViolation: return "hviolation";
    case FuzzOpKind::HandlerAbort: return "habort";
    case FuzzOpKind::Abort: return "abort";
    case FuzzOpKind::Nest: return "nest";
    }
    return "?";
}

bool
opKindFromName(const std::string& s, FuzzOpKind& out)
{
    static const struct { const char* name; FuzzOpKind k; } table[] = {
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
    for (const auto& e : table) {
        if (s == e.name) {
            out = e.k;
            return true;
        }
    }
    return false;
}

const char*
threadOpKindName(ThreadOpKind k)
{
    switch (k) {
    case ThreadOpKind::RunTx: return "runtx";
    case ThreadOpKind::NakedLoad: return "nakedload";
    case ThreadOpKind::NakedStore: return "nakedstore";
    case ThreadOpKind::Work: return "work";
    }
    return "?";
}

bool
threadOpKindFromName(const std::string& s, ThreadOpKind& out)
{
    if (s == "runtx")
        out = ThreadOpKind::RunTx;
    else if (s == "nakedload")
        out = ThreadOpKind::NakedLoad;
    else if (s == "nakedstore")
        out = ThreadOpKind::NakedStore;
    else if (s == "work")
        out = ThreadOpKind::Work;
    else
        return false;
    return true;
}

const char*
regionName(Region r)
{
    switch (r) {
    case Region::Shared: return "shared";
    case Region::Open: return "open";
    case Region::Naked: return "naked";
    case Region::Private: return "private";
    case Region::Scratch: return "scratch";
    }
    return "?";
}

bool
regionFromName(const std::string& s, Region& out)
{
    if (s == "shared")
        out = Region::Shared;
    else if (s == "open")
        out = Region::Open;
    else if (s == "naked")
        out = Region::Naked;
    else if (s == "private")
        out = Region::Private;
    else if (s == "scratch")
        out = Region::Scratch;
    else
        return false;
    return true;
}

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
            os << "op " << opKindName(op.kind) << " "
               << regionName(op.region) << " " << op.slot << " "
               << op.value << " " << op.child << "\n";
        }
    }
    os << "threads " << threads.size() << "\n";
    for (size_t t = 0; t < threads.size(); ++t) {
        os << "thread " << t << " " << threads[t].size() << "\n";
        for (const ThreadOp& op : threads[t]) {
            os << "top " << threadOpKindName(op.kind) << " " << op.tx
               << " " << regionName(op.region) << " " << op.slot << " "
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
            if (!contentionPolicyFromName(v, p.contention))
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
        if (!capacityModeFromName(mode, p.capacityMode))
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
                !opKindFromName(okind, op.kind) ||
                !regionFromName(oregion, op.region)) {
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
                !threadOpKindFromName(okind, op.kind) ||
                !regionFromName(oregion, op.region)) {
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

} // namespace tmsim
