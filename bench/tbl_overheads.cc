/**
 * @file
 * Reproduces the paper's section-7 overhead calibration:
 *
 *   "Starting a transaction requires 6 instructions for TCB
 *    allocation. A commit without any handlers requires 10
 *    instructions, while a rollback without handlers requires 6
 *    instructions. Registering a handler without arguments takes 9
 *    instructions."
 *
 * Measures the exact instruction counts of the runtime fast paths and
 * the cycle costs including the (well-cached) thread-private memory
 * traffic.
 */

#include <cstdio>

#include "core/machine.hh"
#include "runtime/tx_thread.hh"
#include "sim/logging.hh"

using namespace tmsim;

namespace {

struct Measurement
{
    std::uint64_t instructions;
    std::uint64_t cycles;
};

Measurement
measureBeginAndCommit(bool measure_begin)
{
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.htm = HtmConfig::paperLazy();
    Machine m(cfg);
    TxThread t0(m.cpu(0));
    Measurement out{0, 0};

    m.spawn(0, [&](Cpu& c) -> SimTask {
        // Warm the TCB/handler-stack lines.
        co_await t0.atomic([](TxThread&) -> SimTask { co_return; });

        if (measure_begin) {
            std::uint64_t i0 = c.instret();
            Tick c0 = c.now();
            co_await t0.atomic([&](TxThread&) -> SimTask {
                out.instructions = c.instret() - i0;
                out.cycles = c.now() - c0;
                co_return;
            });
        } else {
            std::uint64_t i0 = 0;
            Tick c0 = 0;
            co_await t0.atomic([&](TxThread&) -> SimTask {
                i0 = c.instret();
                c0 = c.now();
                co_return;
            });
            out.instructions = c.instret() - i0;
            out.cycles = c.now() - c0;
        }
    });
    m.run();
    return out;
}

Measurement
measureRollback()
{
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.htm = HtmConfig::paperLazy();
    // A retry must re-enter the body at once to be measured.
    cfg.htm.retryBackoff = false;
    Machine m(cfg);
    TxThread t0(m.cpu(0));
    Measurement out{0, 0};
    std::uint64_t raiseInstr = 0;
    Tick raiseTick = 0;
    int attempt = 0;

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await t0.atomic(
            [&](TxThread& t) -> SimTask {
                ++attempt;
                if (attempt <= 2) {
                    // Attempt 1 warms the handler-stack lines; the
                    // second rollback is the measured (warm) one.
                    raiseInstr = c.instret();
                    raiseTick = c.now();
                    c.htm().raiseViolation(0x1, 0);
                    co_await t.work(0);
                } else {
                    // Retry entry: subtract the 6-instruction begin.
                    out.instructions = c.instret() - raiseInstr - 6;
                    out.cycles = c.now() - raiseTick;
                }
                co_return;
            });
    });
    m.run();
    return out;
}

Measurement
measureRegistration()
{
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.htm = HtmConfig::paperLazy();
    Machine m(cfg);
    TxThread t0(m.cpu(0));
    Measurement out{0, 0};
    auto nopHandler = [](TxThread&,
                         const std::vector<Word>&) -> SimTask {
        co_return;
    };

    m.spawn(0, [&](Cpu& c) -> SimTask {
        co_await t0.atomic([&](TxThread& t) -> SimTask {
            co_await t.onCommit(
                [](TxThread&, const std::vector<Word>&) -> SimTask {
                    co_return;
                });
        });
        co_await t0.atomic([&](TxThread& t) -> SimTask {
            std::uint64_t i0 = c.instret();
            Tick c0 = c.now();
            co_await t.onCommit(nopHandler);
            out.instructions = c.instret() - i0;
            out.cycles = c.now() - c0;
        });
    });
    m.run();
    return out;
}

} // namespace

int
main()
{
    defaultLogContext().quiet = true;

    Measurement begin = measureBeginAndCommit(true);
    Measurement commit = measureBeginAndCommit(false);
    Measurement rollback = measureRollback();
    Measurement reg = measureRegistration();

    std::printf("# Section 7 overhead calibration (paper values in "
                "parentheses)\n");
    std::printf("%-38s %12s %8s\n", "event", "instructions", "cycles");
    std::printf("%-38s %8llu (6) %8llu\n",
                "transaction start (TCB allocation)",
                static_cast<unsigned long long>(begin.instructions),
                static_cast<unsigned long long>(begin.cycles));
    std::printf("%-38s %7llu (10) %8llu\n", "commit without handlers",
                static_cast<unsigned long long>(commit.instructions),
                static_cast<unsigned long long>(commit.cycles));
    std::printf("%-38s %8llu (6) %8llu\n", "rollback without handlers",
                static_cast<unsigned long long>(rollback.instructions),
                static_cast<unsigned long long>(rollback.cycles));
    std::printf("%-38s %8llu (9) %8llu\n",
                "handler registration (no arguments)",
                static_cast<unsigned long long>(reg.instructions),
                static_cast<unsigned long long>(reg.cycles));

    const bool ok = begin.instructions == 6 && commit.instructions == 10 &&
                    rollback.instructions == 6 && reg.instructions == 9;
    if (!ok) {
        std::fprintf(stderr, "CALIBRATION MISMATCH\n");
        return 1;
    }
    return 0;
}
