/**
 * @file
 * Substitute for SPLASH mp3d: rarefied-fluid particle dynamics.
 *
 * Each outer transaction moves a batch of the thread's own particles
 * (private position/velocity state, deterministic pseudo-physics),
 * updates shared space-cell occupancy counters on collisions through
 * closed-nested transactions, and finally accumulates into a single
 * global momentum reduction line — the paper's motivating case: the
 * conflict-prone updates sit at the END of a long outer transaction,
 * so flattening pays the whole outer rollback for every collision
 * conflict while nesting retries only the tiny inner transaction
 * ("the improvements are dramatic for mp3d (4.93x)").
 */

#ifndef TMSIM_WORKLOADS_KERNEL_MP3D_HH
#define TMSIM_WORKLOADS_KERNEL_MP3D_HH

#include "workloads/harness.hh"

namespace tmsim {

struct Mp3dParams
{
    int particles = 384;
    int steps = 2;
    /** Run the reduction updates as OPEN-nested transactions with
     *  violation/abort compensation instead of closed-nested ones
     *  (the paper's system-code recipe applied to commutative
     *  reductions; ablation A4). */
    bool openReductions = false;
};

class Mp3dKernel : public Kernel
{
  public:
    explicit Mp3dKernel(Mp3dParams params = Mp3dParams{}) : p(params) {}

    std::string name() const override { return "mp3d"; }
    void init(Machine& m, int n_threads) override;
    SimTask thread(TxThread& t, int tid, int n_threads) override;
    bool verify(Machine& m, int n_threads) override;

    /** Deterministic pseudo-physics shared with the host reference. */
    static Word advance(Word pos);
    bool collides(Word pos) const
    {
        return (pos >> 8) % static_cast<Word>(collideMod) == 0;
    }
    static Word momentumOf(Word pos) { return (pos >> 16) & 0xFF; }

  private:
    /** Particles per outer transaction. */
    static constexpr int batch = 16;
    /** Shared space cells (one line each). */
    static constexpr int cells = 64;
    /** ALU cycles of physics per particle. */
    static constexpr int moveCycles = 60;
    /** ALU cycles per collision update. */
    static constexpr int collideCycles = 15;
    /** A particle collides when (pos >> 8) % collideMod == 0. */
    static constexpr int collideMod = 8;
    /** ALU cycles inside the momentum reduction transaction
     *  (collision-pair momentum exchange). */
    static constexpr int momentumCycles = 120;

    Mp3dParams p;
    Addr posBase = 0;      // particle positions (one word each)
    Addr cellBase = 0;     // cell occupancy counters (one line each)
    Addr momentumAddr = 0; // the global reduction word
};

} // namespace tmsim

#endif // TMSIM_WORKLOADS_KERNEL_MP3D_HH
