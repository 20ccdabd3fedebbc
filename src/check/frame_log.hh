/**
 * @file
 * Per-thread attempt-frame recorder of the fuzz walk (check/fuzz_walk),
 * the one FuzzProgram interpreter every execution engine shares. Each
 * logical thread keeps a stack of frames, one per live transaction
 * attempt; checked accesses are logged into the top frame, a
 * closed-nested commit folds the child frame into its parent, and a
 * restart discards the frames the failed attempt left behind. The walk
 * drives every transition the same way on every engine: an attempt
 * enters when the engine's retry driver (re)invokes the body. The
 * FrameLog is also the recorder's one error sink.
 */

#ifndef TMSIM_CHECK_FRAME_LOG_HH
#define TMSIM_CHECK_FRAME_LOG_HH

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "check/observed.hh"

namespace tmsim {

class FrameLog
{
  public:
    struct Frame
    {
        int depth;
        std::vector<ObservedAccess> accesses;
    };

    void
    resize(size_t n_threads)
    {
        frames.resize(n_threads);
    }

    /** Start (or restart) the attempt at @p depth: discard frames the
     *  previous attempt left at this depth or deeper. */
    void
    enterAttempt(int tid, int depth)
    {
        auto& st = frames[static_cast<size_t>(tid)];
        while (!st.empty() && st.back().depth >= depth)
            st.pop_back();
        st.push_back(Frame{depth, {}});
    }

    /** Log one checked access into the top frame; records an error
     *  when no frame is live. */
    void
    logAccess(int tid, ObservedAccess::Kind kind, Addr a, Word v)
    {
        auto& st = frames[static_cast<size_t>(tid)];
        if (st.empty()) {
            setError("access logged outside any transaction frame");
            return;
        }
        st.back().accesses.push_back(ObservedAccess{kind, a, v});
    }

    /**
     * Mark logged reads of track unit @p unit unchecked after a
     * release. Conservative: a release drops the whole track unit from
     * the top-level read-set under flattening, so un-check matching
     * reads in every live frame of this thread. @p unit_mask maps an
     * address to its track unit (line mask for line-granular engines,
     * word mask for word-granular ones).
     */
    void
    markReleased(int tid, Addr unit, Addr unit_mask)
    {
        for (Frame& f : frames[static_cast<size_t>(tid)]) {
            for (ObservedAccess& a : f.accesses) {
                if (a.kind == ObservedAccess::Kind::Read &&
                    (a.addr & unit_mask) == unit) {
                    a.kind = ObservedAccess::Kind::ReadUnchecked;
                }
            }
        }
    }

    /** Discard every frame of @p tid at or deeper than @p depth
     *  (voluntary abort: the attempt's frames are dead). */
    void
    discardAtOrBelow(int tid, int depth)
    {
        auto& st = frames[static_cast<size_t>(tid)];
        while (!st.empty() && st.back().depth >= depth)
            st.pop_back();
    }

    /** True if the top frame of @p tid exists and sits at @p depth. */
    bool
    topIs(int tid, int depth) const
    {
        const auto& st = frames[static_cast<size_t>(tid)];
        return !st.empty() && st.back().depth == depth;
    }

    /** Pop and return the top frame (caller checked topIs()). */
    Frame
    takeTop(int tid)
    {
        auto& st = frames[static_cast<size_t>(tid)];
        Frame f = std::move(st.back());
        st.pop_back();
        return f;
    }

    /** Fold @p accesses into the current top frame (closed-nested
     *  commit: the child's accesses become the parent's). */
    void
    foldIntoTop(int tid, std::vector<ObservedAccess> accesses)
    {
        auto& st = frames[static_cast<size_t>(tid)];
        if (st.empty()) {
            setError("nested commit with no enclosing frame");
            return;
        }
        st.back().accesses.insert(st.back().accesses.end(),
                                  accesses.begin(), accesses.end());
    }

    /** First recorder-invariant violation, if any ("" when clean).
     *  Only meaningful once all recording threads are quiescent. */
    const std::string& error() const { return firstError; }

    /** First-wins; safe to call from concurrent engine threads (the
     *  frame operations themselves are per-tid and lock-free). */
    void
    setError(const std::string& msg)
    {
        std::lock_guard<std::mutex> g(errLock);
        if (firstError.empty())
            firstError = msg;
    }

  private:
    std::vector<std::vector<Frame>> frames;
    std::string firstError;
    std::mutex errLock;
};

} // namespace tmsim

#endif // TMSIM_CHECK_FRAME_LOG_HH
