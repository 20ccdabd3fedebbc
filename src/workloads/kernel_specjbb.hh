/**
 * @file
 * SPECjbb2000-style warehouse workload (paper section 7.1): customer
 * tasks (new order, payment, order status) over shared B-trees, in the
 * paper's three parallelisations:
 *
 *  - Flat:   one outer transaction per operation (the 1.92x baseline).
 *  - Closed: B-tree searches/updates wrapped in closed-nested
 *            transactions (the paper's SPECjbb2000-closed, 2.05x over
 *            flat).
 *  - Open:   the order-ID counter increments in an open-nested
 *            transaction (SPECjbb2000-open, 2.22x over flat; "no
 *            compensation code is needed ... as the order IDs must be
 *            unique, but not necessarily sequential").
 *
 * Production shape: the dataset shards into `warehouses` independent
 * warehouse instances (customer/order/stock B-trees plus an order-ID
 * counter and district YTD lines per warehouse), the deterministic
 * arrival sequence is Zipf-skewed over warehouses and items (hot
 * warehouse 0, hot low keys), and a configurable fraction of new
 * orders is *cross-shard*: the order id is drawn from the home
 * warehouse's counter but the order lands in another warehouse's
 * order tree. Under the Open/Hybrid variants that handoff runs as one
 * open-nested transaction keyed idempotently by the global op index,
 * so it needs no compensation: an ancestor abort simply re-runs the
 * handoff and overwrites the same key with a freshly drawn id.
 *
 * The default parameters (1 warehouse, s = 0, 0% remote) reproduce the
 * original single-warehouse kernel op-for-op and byte-for-byte — the
 * golden determinism fingerprints pin this.
 */

#ifndef TMSIM_WORKLOADS_KERNEL_SPECJBB_HH
#define TMSIM_WORKLOADS_KERNEL_SPECJBB_HH

#include "workloads/btree.hh"
#include "workloads/harness.hh"
#include "workloads/zipf.hh"

namespace tmsim {

enum class JbbVariant
{
    Flat,
    ClosedNested,
    OpenNested,
    /** Closed-nested tree operations AND the open-nested order-id
     *  counter — the combination the paper suggests but does not
     *  evaluate ("We could use both open and closed nesting to obtain
     *  the advantages of both approaches"). */
    Hybrid,
};

struct JbbParams
{
    /** Total operations, statically partitioned over the threads
     *  (strong scaling, like the paper's fixed warehouse load). */
    int totalOps = 160;
    /** Total customer keys across all warehouses. */
    int customers = 256;
    /** Total stock keys across all warehouses. */
    int stockItems = 512;
    /** ALU "business logic" cycles per operation phase. */
    int thinkCycles = 1000;
    /** Independent warehouse shards (trees + counter + YTD each). */
    int warehouses = 1;
    /** Zipf exponent in [0, 1) for warehouse/customer/item draws;
     *  0 = uniform. Warehouse 0 and low keys are the hot ranks. */
    double zipfS = 0.0;
    /** Percent of new orders handed off to another warehouse's order
     *  tree (only meaningful with warehouses > 1). */
    int remotePct = 0;
};

class SpecJbbKernel : public Kernel
{
  public:
    explicit SpecJbbKernel(JbbVariant variant,
                           JbbParams params = JbbParams{})
        : variant(variant), p(params)
    {
    }

    std::string name() const override;
    void init(Machine& m, int n_threads) override;
    SimTask thread(TxThread& t, int tid, int n_threads) override;
    bool verify(Machine& m, int n_threads) override;
    Addr memBytesHint() const override;

    /** Inspection hooks for tests (warehouse 0's shard). */
    const SimBTree& orders() const { return shards[0].orderTree; }
    const SimBTree& customers() const { return shards[0].customerTree; }
    const SimBTree& stock() const { return shards[0].stockTree; }

    int warehouses() const { return p.warehouses; }

  private:
    /** Deterministic operation selector: 5/3/2 mix per 10 ops. */
    enum class Op
    {
        NewOrder,
        Payment,
        OrderStatus,
    };
    static Op opFor(int g);

    /** One warehouse: private trees, order-id counter, YTD lines. */
    struct Shard
    {
        SimBTree customerTree;
        SimBTree orderTree;
        SimBTree stockTree;
        Addr orderIdAddr = 0;
        Addr ytdBase = 0; // 4 district year-to-date counters
    };

    SimTask newOrder(TxThread& t, int g);
    SimTask payment(TxThread& t, int g);
    SimTask orderStatus(TxThread& t, int g);

    /** What the steps of one new order's tail share. */
    struct OrderTail
    {
        /** Draws the order id; holds a local order. */
        Shard& home;
        /** Holds a cross-shard (remote) order. */
        Shard& dest;
        int g;
        int homeIdx;
        Word cust;
        bool remote;
        Word oid;
    };

    /** Draw the next order id from the home warehouse's counter. */
    SimTask drawOrderId(TxThread& t, OrderTail& o);
    /** Insert the order, keyed by its drawn id (see localOrderKey). */
    SimTask insertOrder(TxThread& t, OrderTail& o);

    /** Run a tree operation, closed-nested under the Closed variant. */
    SimTask treeGuard(TxThread& t, TxBody body);

    /** The legacy single-warehouse uniform arrival path: taken iff
     *  warehouses == 1 && zipfS == 0, preserving the original LCG-style
     *  selectors bit-for-bit (golden fingerprints pin them). */
    bool legacyArrivals() const
    {
        return p.warehouses == 1 && p.zipfS == 0.0;
    }

    int custsPerWh() const
    {
        return p.customers / p.warehouses > 0
            ? p.customers / p.warehouses : 1;
    }
    int stockPerWh() const
    {
        return p.stockItems / p.warehouses > 0
            ? p.stockItems / p.warehouses : 1;
    }

    int whFor(int g) const;
    Word custFor(int g) const;
    Word itemFor(int g, int k) const;
    static Word amountFor(int g);

    /** Cross-shard decision and destination for new-order @p g. */
    bool remoteFor(int g) const;
    int destFor(int g, int home) const;

    /**
     * Order-tree key spaces (per destination tree, disjoint):
     *  - local:  uid = oid * W + home  (uid < 2^31; reduces to the
     *            legacy oid at W = 1), key = (uid%4)<<32 | uid
     *  - remote: uid = 2^31 | g       (idempotent per logical op, so
     *            an open-nested handoff replayed after an ancestor
     *            abort overwrites rather than duplicates)
     */
    Word localOrderKey(Word oid, int home) const;
    Word remoteOrderKey(int g) const;

    /** Per-shard B-tree pool sizes (nodes), max'd with the legacy
     *  fixed sizes so default params keep the original layout. */
    void poolSizes(std::size_t& cust, std::size_t& order,
                   std::size_t& stock) const;

    JbbVariant variant;
    JbbParams p;
    std::vector<Shard> shards;
    ZipfGen whZipf;
    ZipfGen custZipf;
    ZipfGen itemZipf;
    static constexpr int districts = 4;
    /** Stock items reserved per new order. */
    static constexpr int stockPerOrder = 3;

    // Host-side workload counters (jbb.* stats; zero simulated cost).
    StatsRegistry::Counter* statNewOrder = nullptr;
    StatsRegistry::Counter* statPayment = nullptr;
    StatsRegistry::Counter* statOrderStatus = nullptr;
    StatsRegistry::Counter* statRemote = nullptr;
};

} // namespace tmsim

#endif // TMSIM_WORKLOADS_KERNEL_SPECJBB_HH
