/**
 * @file
 * Control-transfer signals used to unwind raw-ISA transaction bodies.
 *
 * A violation or abort protocol that decides to roll back performs the
 * hardware rollback (undo restore, set discard, register restore) and
 * then transfers control to the level's restart point, modelling the
 * xvpc redirection of the paper's handler protocol. For a level the
 * TxThread runtime owns, that transfer is a jump straight to the
 * owning atomic() frame (sim/task.hh): nothing is thrown, so a
 * try/catch in the body cannot see it, while handlers and RAII
 * destructors still run. For any other level (raw-ISA code, the Cpu's
 * default protocols) the protocol throws one of these through the
 * coroutine chain, and raw code's own try/catch retry loop catches it.
 */

#ifndef TMSIM_CORE_TX_SIGNALS_HH
#define TMSIM_CORE_TX_SIGNALS_HH

#include "sim/types.hh"

namespace tmsim {

/** Rollback-and-retry signal targeted at nesting level targetLevel. */
struct TxRollback
{
    /** The shallowest level that was rolled back (1-based). */
    int targetLevel;
    /** Conflict address (xvaddr) if available. */
    Addr vaddr;
};

/** Voluntary abort (xabort) unwinding to level targetLevel. */
struct TxAbortSignal
{
    int targetLevel;
    /** User abort code passed to xabort. */
    Word code;
};

} // namespace tmsim

#endif // TMSIM_CORE_TX_SIGNALS_HH
