#include "mem/bus.hh"

namespace tmsim {

Bus::Bus(EventQueue& eq_, StatsRegistry& stats)
    : eq(eq_),
      arbiter(eq_),
      token(eq_),
      statTransfers(stats.counter("bus.transfers")),
      statBusyCycles(stats.counter("bus.busy_cycles")),
      statTokenGrants(stats.counter("bus.token_grants"))
{
}

SimTask
Bus::lineFetch(Addr line_bytes)
{
    // Request phase: one address beat on the bus.
    co_await arbiter.acquire();
    ++statTransfers;
    statBusyCycles += arbitrationLatency + 1;
    co_await Delay{eq, arbitrationLatency + 1};
    arbiter.release();

    // DRAM access proceeds off the bus.
    co_await Delay{eq, memoryLatency};

    // Response phase: data beats.
    Cycles beats = beatsForLine(line_bytes);
    co_await arbiter.acquire();
    statBusyCycles += beats;
    co_await Delay{eq, beats};
    arbiter.release();
}

SimTask
Bus::occupy(Cycles beats)
{
    co_await arbiter.acquire();
    ++statTransfers;
    statBusyCycles += arbitrationLatency + beats;
    co_await Delay{eq, arbitrationLatency + beats};
    arbiter.release();
}

} // namespace tmsim
