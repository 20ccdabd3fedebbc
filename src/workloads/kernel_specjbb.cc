#include "workloads/kernel_specjbb.hh"

#include <algorithm>
#include <map>
#include <set>

namespace tmsim {

namespace {

// Independent deterministic draw streams off the global op index.
constexpr std::uint64_t saltWarehouse = 0x77;
constexpr std::uint64_t saltCustomer = 0xC5;
constexpr std::uint64_t saltItem = 0x17;
constexpr std::uint64_t saltRemote = 0x4E;
constexpr std::uint64_t saltDest = 0xD5;

std::uint64_t
streamHash(std::uint64_t index, std::uint64_t salt)
{
    return hashMix64(index ^ (salt * 0x9e3779b97f4a7c15ull));
}

} // namespace

std::string
SpecJbbKernel::name() const
{
    switch (variant) {
      case JbbVariant::Flat:
        return "specjbb-flat";
      case JbbVariant::ClosedNested:
        return "specjbb-closed";
      case JbbVariant::OpenNested:
        return "specjbb-open";
      case JbbVariant::Hybrid:
        return "specjbb-hybrid";
    }
    return "specjbb";
}

SpecJbbKernel::Op
SpecJbbKernel::opFor(int g)
{
    int slot = g % 10;
    if (slot < 5)
        return Op::NewOrder;
    if (slot < 8)
        return Op::Payment;
    return Op::OrderStatus;
}

int
SpecJbbKernel::whFor(int g) const
{
    if (p.warehouses == 1)
        return 0;
    return static_cast<int>(
        whZipf.drawAt(static_cast<std::uint64_t>(g), saltWarehouse));
}

Word
SpecJbbKernel::custFor(int g) const
{
    if (legacyArrivals()) {
        return 1 + (static_cast<Word>(g) * 31 + 7) %
                       static_cast<Word>(custsPerWh());
    }
    return 1 + custZipf.drawAt(static_cast<std::uint64_t>(g),
                               saltCustomer);
}

Word
SpecJbbKernel::itemFor(int g, int k) const
{
    if (legacyArrivals()) {
        return 1 + (static_cast<Word>(g) * 13 +
                    static_cast<Word>(k) * 5) %
                       static_cast<Word>(stockPerWh());
    }
    return 1 + itemZipf.drawAt(static_cast<std::uint64_t>(g) * 131071ull +
                                   static_cast<std::uint64_t>(k),
                               saltItem);
}

Word
SpecJbbKernel::amountFor(int g)
{
    return 10 + static_cast<Word>(g) * 3 % 90;
}

bool
SpecJbbKernel::remoteFor(int g) const
{
    if (p.warehouses <= 1 || p.remotePct <= 0)
        return false;
    return streamHash(static_cast<std::uint64_t>(g), saltRemote) % 100 <
           static_cast<std::uint64_t>(p.remotePct);
}

int
SpecJbbKernel::destFor(int g, int home) const
{
    const int hop = 1 + static_cast<int>(
        streamHash(static_cast<std::uint64_t>(g), saltDest) %
        static_cast<std::uint64_t>(p.warehouses - 1));
    return (home + hop) % p.warehouses;
}

Word
SpecJbbKernel::localOrderKey(Word oid, int home) const
{
    const Word uid =
        oid * static_cast<Word>(p.warehouses) + static_cast<Word>(home);
    if (uid >= (1ull << 31))
        panic("order uid overflow (oid %llu, warehouse %d)",
              static_cast<unsigned long long>(oid), home);
    return (uid % 4) * (1ull << 32) + uid;
}

Word
SpecJbbKernel::remoteOrderKey(int g) const
{
    const Word uid = (1ull << 31) | static_cast<Word>(g);
    return (static_cast<Word>(g) % 4) * (1ull << 32) + uid;
}

void
SpecJbbKernel::poolSizes(std::size_t& cust, std::size_t& order,
                         std::size_t& stock) const
{
    // Bulk load packs 4 items per leaf and 4 children per internal
    // node; runtime inserts into the order tree consume at most one
    // node per insert (splits amortise well below that).
    auto bulkPool = [](std::size_t items) {
        std::size_t level = (items + 3) / 4;
        std::size_t total = level;
        while (level > 1) {
            level = (level + 3) / 4;
            total += level;
        }
        return total + 32;
    };
    // max() with the legacy fixed sizes: default params must reproduce
    // the original memory layout exactly (golden fingerprints).
    cust = std::max<std::size_t>(
        512, bulkPool(static_cast<std::size_t>(custsPerWh())));
    stock = std::max<std::size_t>(
        512, bulkPool(static_cast<std::size_t>(stockPerWh())));
    // Worst case: skew lands every new order in one shard's tree.
    order = std::max<std::size_t>(
        1024, static_cast<std::size_t>(p.totalOps) + 64);
}

Addr
SpecJbbKernel::memBytesHint() const
{
    std::size_t cust = 0, order = 0, stock = 0;
    poolSizes(cust, order, stock);
    const Addr nodeBytes = 16 * wordBytes; // SimBTree node layout
    const Addr perShard =
        static_cast<Addr>(cust + order + stock) * nodeBytes +
        3 * 64 /* tree ctl lines */ + 64 /* order id */ +
        static_cast<Addr>(districts) * 64;
    // Generous: reserving address space is free under the sparse
    // store; 64 MiB base covers the runtime's per-thread regions.
    return 64ull * 1024 * 1024 +
           static_cast<Addr>(p.warehouses) * perShard * 2;
}

void
SpecJbbKernel::init(Machine& m, int /* n_threads */)
{
    BackingStore& mem = m.memory();
    statNewOrder = &m.stats().counter("jbb.ops_neworder");
    statPayment = &m.stats().counter("jbb.ops_payment");
    statOrderStatus = &m.stats().counter("jbb.ops_orderstatus");
    statRemote = &m.stats().counter("jbb.remote_handoffs");

    if (!legacyArrivals()) {
        whZipf = ZipfGen(static_cast<std::uint64_t>(p.warehouses),
                         p.zipfS);
        custZipf = ZipfGen(static_cast<std::uint64_t>(custsPerWh()),
                           p.zipfS);
        itemZipf = ZipfGen(static_cast<std::uint64_t>(stockPerWh()),
                           p.zipfS);
    }

    std::size_t custPool = 0, orderPool = 0, stockPool = 0;
    poolSizes(custPool, orderPool, stockPool);

    std::vector<std::pair<Word, Word>> custs;
    custs.reserve(static_cast<std::size_t>(custsPerWh()));
    for (int c = 0; c < custsPerWh(); ++c)
        custs.emplace_back(static_cast<Word>(c + 1), 1000);
    std::vector<std::pair<Word, Word>> stock;
    stock.reserve(static_cast<std::size_t>(stockPerWh()));
    for (int i = 0; i < stockPerWh(); ++i)
        stock.emplace_back(static_cast<Word>(i + 1), 100);

    shards.clear();
    shards.resize(static_cast<std::size_t>(p.warehouses));
    for (auto& s : shards) {
        s.customerTree = SimBTree::create(mem, custPool);
        s.orderTree = SimBTree::create(mem, orderPool);
        s.stockTree = SimBTree::create(mem, stockPool);
        s.orderIdAddr = mem.allocate(64, 64);
        s.ytdBase = mem.allocate(districts * 64, 64);
        mem.write(s.orderIdAddr, 1);
        s.customerTree.bulkLoad(mem, custs);
        s.stockTree.bulkLoad(mem, stock);
    }
}

SimTask
SpecJbbKernel::treeGuard(TxThread& t, TxBody body)
{
    if (variant == JbbVariant::ClosedNested ||
        variant == JbbVariant::Hybrid) {
        co_await t.atomic(std::move(body));
    } else {
        co_await body(t);
    }
}

SimTask
SpecJbbKernel::newOrder(TxThread& t, int g)
{
    const int home = whFor(g);
    Shard& hs = shards[static_cast<std::size_t>(home)];
    const Word cust = custFor(g);
    const bool remote = remoteFor(g);
    Shard& ds =
        remote ? shards[static_cast<std::size_t>(destFor(g, home))] : hs;
    co_await t.atomic([&](TxThread& tx) -> SimTask {
        // Business logic: order assembly, pricing.
        co_await tx.work(static_cast<std::uint64_t>(p.thinkCycles));

        // Customer credit check (read-only, low contention).
        co_await treeGuard(tx, [&](TxThread& ti) -> SimTask {
            co_await hs.customerTree.lookup(ti, cust);
        });

        // Stock reservations (always against the home warehouse).
        for (int k = 0; k < stockPerOrder; ++k) {
            const Word item = itemFor(g, k);
            co_await treeGuard(tx, [&](TxThread& ti) -> SimTask {
                co_await hs.stockTree.addDelta(
                    ti, item, static_cast<Word>(-1));
            });
        }

        // Unique order id from the HOME warehouse's counter, insertion
        // into the DESTINATION warehouse's order tree, at the end of
        // the operation.
        //
        //  - Open and Hybrid variants: the id comes from an open-nested
        //    increment that commits immediately ("no compensation code
        //    is needed ... as the order IDs must be unique, but not
        //    necessarily sequential"). A cross-shard handoff bundles
        //    the id draw AND the remote insert into that open-nested
        //    transaction, keyed by the op index so an ancestor abort
        //    replays it idempotently (overwrite, not duplicate).
        //  - Closed variant: id generation and insert form one
        //    closed-nested transaction after the think time, so a
        //    conflict on the counter or the order leaf replays only
        //    this small piece.
        //  - Flat: both run directly in the outer transaction; every
        //    parallel new-order conflicts on the counter (the paper's
        //    motivation for open nesting).
        //
        // Whatever is left after the think time runs under treeGuard:
        // closed-nested under Closed and Hybrid, directly otherwise.
        if (remote && statRemote)
            ++*statRemote;
        const bool openId = variant == JbbVariant::OpenNested ||
                            variant == JbbVariant::Hybrid;
        OrderTail o{hs, ds, g, home, cust, remote, 0};
        if (openId) {
            co_await tx.atomicOpen([this, &o](TxThread& ti) -> SimTask {
                co_await drawOrderId(ti, o);
                if (o.remote)
                    co_await insertOrder(ti, o);
            });
        } else if (variant == JbbVariant::Flat) {
            co_await drawOrderId(tx, o);
        }
        co_await tx.work(static_cast<std::uint64_t>(p.thinkCycles));
        if (openId && remote)
            co_return;
        co_await treeGuard(tx, [this, &o](TxThread& ti) -> SimTask {
            if (variant == JbbVariant::ClosedNested)
                co_await drawOrderId(ti, o);
            co_await insertOrder(ti, o);
        });
    });
}

SimTask
SpecJbbKernel::drawOrderId(TxThread& t, OrderTail& o)
{
    o.oid = co_await t.ld(o.home.orderIdAddr);
    co_await t.st(o.home.orderIdAddr, o.oid + 1);
}

SimTask
SpecJbbKernel::insertOrder(TxThread& t, OrderTail& o)
{
    if (o.remote) {
        co_await o.dest.orderTree.insert(
            t, remoteOrderKey(o.g),
            o.oid * static_cast<Word>(p.warehouses) +
                static_cast<Word>(o.homeIdx));
    } else {
        co_await o.home.orderTree.insert(t, localOrderKey(o.oid, o.homeIdx),
                                         (o.cust << 16) | (o.oid & 0xFFFF));
    }
}

SimTask
SpecJbbKernel::payment(TxThread& t, int g)
{
    Shard& hs = shards[static_cast<std::size_t>(whFor(g))];
    const Word cust = custFor(g);
    const Word amount = amountFor(g);
    co_await t.atomic([&](TxThread& tx) -> SimTask {
        co_await tx.work(static_cast<std::uint64_t>(p.thinkCycles));
        co_await treeGuard(tx, [&](TxThread& ti) -> SimTask {
            co_await hs.customerTree.addDelta(ti, cust, amount);
        });
        co_await tx.work(static_cast<std::uint64_t>(p.thinkCycles) / 2);
        // District year-to-date accumulation (hot shared word, last).
        Addr ytd = hs.ytdBase + (cust % districts) * 64;
        co_await treeGuard(tx, [&](TxThread& ti) -> SimTask {
            Word v = co_await ti.ld(ytd);
            co_await ti.st(ytd, v + amount);
        });
    });
}

SimTask
SpecJbbKernel::orderStatus(TxThread& t, int g)
{
    Shard& hs = shards[static_cast<std::size_t>(whFor(g))];
    const Word cust = custFor(g);
    co_await t.atomic([&](TxThread& tx) -> SimTask {
        co_await tx.work(static_cast<std::uint64_t>(p.thinkCycles) / 2);
        co_await treeGuard(tx, [&](TxThread& ti) -> SimTask {
            co_await hs.customerTree.lookup(ti, cust);
        });
        co_await tx.work(static_cast<std::uint64_t>(p.thinkCycles) / 2);
        co_await treeGuard(tx, [&](TxThread& ti) -> SimTask {
            Word probe = co_await ti.ld(hs.orderIdAddr);
            // Probe a recently issued order id (read-only path).
            co_await hs.orderTree.lookup(ti, probe > 1 ? probe - 1 : 1);
        });
    });
}

SimTask
SpecJbbKernel::thread(TxThread& t, int tid, int n_threads)
{
    // Per-op-class tail latency: every transaction of an operation is
    // tagged with that operation's class, so the stats dump reports
    // htm.tx_duration_committed.<class>::p99 per business op. The
    // cross-shard class only exists in sharded configurations, keeping
    // the single-warehouse stats schema unchanged.
    const int clsNewOrder = t.registerOpClass("neworder");
    const int clsPayment = t.registerOpClass("payment");
    const int clsOrderStatus = t.registerOpClass("orderstatus");
    const int clsRemote = p.warehouses > 1
        ? t.registerOpClass("neworder-remote") : clsNewOrder;
    for (int g = tid; g < p.totalOps; g += n_threads) {
        switch (opFor(g)) {
          case Op::NewOrder:
            ++*statNewOrder;
            t.setOpClass(remoteFor(g) ? clsRemote : clsNewOrder);
            co_await newOrder(t, g);
            break;
          case Op::Payment:
            ++*statPayment;
            t.setOpClass(clsPayment);
            co_await payment(t, g);
            break;
          case Op::OrderStatus:
            ++*statOrderStatus;
            t.setOpClass(clsOrderStatus);
            co_await orderStatus(t, g);
            break;
        }
    }
    t.setOpClass(-1);
}

bool
SpecJbbKernel::verify(Machine& m, int n_threads)
{
    const BackingStore& mem = m.memory();
    const int W = p.warehouses;
    for (const auto& s : shards) {
        if (!s.customerTree.validateStructure(mem) ||
            !s.orderTree.validateStructure(mem) ||
            !s.stockTree.validateStructure(mem)) {
            return false;
        }
    }

    // Replay the deterministic operation mix on the host.
    (void)n_threads;
    const auto nc = static_cast<std::size_t>(custsPerWh());
    const auto ns = static_cast<std::size_t>(stockPerWh());
    std::vector<std::vector<Word>> stockRef(
        static_cast<std::size_t>(W), std::vector<Word>(ns, 100));
    std::vector<std::vector<Word>> balanceRef(
        static_cast<std::size_t>(W), std::vector<Word>(nc, 1000));
    std::vector<Word> ytdRef(static_cast<std::size_t>(W), 0);
    std::vector<int> localOrders(static_cast<std::size_t>(W), 0);
    std::vector<std::set<Word>> remoteKeys(static_cast<std::size_t>(W));
    std::map<Word, int> remoteHome;
    for (int g = 0; g < p.totalOps; ++g) {
        const auto w = static_cast<std::size_t>(whFor(g));
        switch (opFor(g)) {
          case Op::NewOrder:
            for (int k = 0; k < stockPerOrder; ++k)
                --stockRef[w][static_cast<std::size_t>(itemFor(g, k) - 1)];
            if (remoteFor(g)) {
                const auto d = static_cast<std::size_t>(
                    destFor(g, static_cast<int>(w)));
                remoteKeys[d].insert(remoteOrderKey(g));
                remoteHome[remoteOrderKey(g)] = static_cast<int>(w);
            } else {
                ++localOrders[w];
            }
            break;
          case Op::Payment:
            ytdRef[w] += amountFor(g);
            balanceRef[w][static_cast<std::size_t>(custFor(g) - 1)] +=
                amountFor(g);
            break;
          case Op::OrderStatus:
            break;
        }
    }

    // Draw uids (oid * W + home) seen across every order tree: each
    // committed counter draw may surface at most once, chip-wide.
    std::set<Word> uids;
    for (int w = 0; w < W; ++w) {
        const Shard& s = shards[static_cast<std::size_t>(w)];

        // Orders: exactly one local entry per committed home new-order
        // plus exactly the expected cross-shard handoffs, ids unique.
        auto orders = s.orderTree.items(mem);
        int localSeen = 0;
        std::size_t remoteSeen = 0;
        for (const auto& [k, v] : orders) {
            const Word uid = k & 0xFFFFFFFFull;
            if ((k >> 32) != uid % 4)
                return false;
            if (uid & (1ull << 31)) {
                ++remoteSeen;
                if (!remoteKeys[static_cast<std::size_t>(w)].count(k))
                    return false;
                // Value encodes the draw: oid * W + home warehouse.
                if (static_cast<int>(v % static_cast<Word>(W)) !=
                    remoteHome[k])
                    return false;
                if (!uids.insert(v).second)
                    return false;
            } else {
                ++localSeen;
                if (W > 1 &&
                    static_cast<int>(uid % static_cast<Word>(W)) != w)
                    return false;
                if (!uids.insert(uid).second)
                    return false;
            }
        }
        if (localSeen != localOrders[static_cast<std::size_t>(w)])
            return false;
        if (remoteSeen != remoteKeys[static_cast<std::size_t>(w)].size())
            return false;

        // Stock conservation.
        auto stock = s.stockTree.items(mem);
        if (stock.size() != ns)
            return false;
        for (const auto& [k, v] : stock) {
            if (v != stockRef[static_cast<std::size_t>(w)]
                             [static_cast<std::size_t>(k - 1)])
                return false;
        }

        // Customer balances and district YTD totals.
        auto custs = s.customerTree.items(mem);
        if (custs.size() != nc)
            return false;
        for (const auto& [k, v] : custs) {
            if (v != balanceRef[static_cast<std::size_t>(w)]
                               [static_cast<std::size_t>(k - 1)])
                return false;
        }
        Word ytdTotal = 0;
        for (int d = 0; d < districts; ++d)
            ytdTotal += mem.read(s.ytdBase + static_cast<Addr>(d) * 64);
        if (ytdTotal != ytdRef[static_cast<std::size_t>(w)])
            return false;
    }
    return true;
}

} // namespace tmsim
