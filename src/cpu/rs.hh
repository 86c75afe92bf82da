/**
 * @file
 * Reservation stations. The SPARC64 V has four kinds (RSA, RSE x2,
 * RSF x2, RSBR); each holds issued instructions until their sources
 * are (speculatively) ready and a matching execution unit is free.
 * Selection is oldest-first among dispatchable entries.
 */

#ifndef S64V_CPU_RS_HH
#define S64V_CPU_RS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/**
 * A single reservation station holding window sequence numbers.
 * Entries keep their slot from issue until their execution is
 * confirmed (replayed instructions revert to waiting without
 * re-allocation).
 */
class ReservationStation
{
  public:
    /**
     * @param name stat name ("rsa", "rse0", ...).
     * @param entries buffer capacity.
     * @param dispatch_width max dispatches per cycle.
     */
    ReservationStation(const std::string &name, unsigned entries,
                       unsigned dispatch_width, stats::Group *parent);

    bool full() const { return seqs_.size() >= entries_; }
    bool empty() const { return seqs_.empty(); }
    std::size_t occupancy() const { return seqs_.size(); }
    /** The entries' window sequence numbers, oldest first. */
    const std::vector<std::uint64_t> &seqs() const { return seqs_; }
    unsigned capacity() const { return entries_; }

    /** Insert a newly issued instruction. */
    void insert(std::uint64_t seq);

    /** Remove an entry whose execution was confirmed. */
    void remove(std::uint64_t seq);

    /**
     * Select the oldest entries for which @p dispatchable returns
     * true, at most the station's dispatch width of them. Selected
     * entries stay in the station (they are removed only on
     * confirmation).
     *
     * Templated on the predicate so the per-entry call inlines: the
     * dispatch stage runs this on every station every cycle, and a
     * std::function indirection here is measurable on the profile.
     *
     * @param dispatchable predicate: can this seq dispatch now?
     * @param out selected sequence numbers, oldest first.
     */
    template <typename Pred>
    void select(const Pred &dispatchable,
                std::vector<std::uint64_t> &out) const
    {
        unsigned picked = 0;
        for (std::uint64_t seq : seqs_) {
            if (picked >= dispatchWidth_)
                break;
            if (dispatchable(seq)) {
                out.push_back(seq);
                ++picked;
            }
        }
    }

    std::uint64_t dispatches() const { return dispatches_.value(); }

    /** Count a dispatch made from this station. */
    void noteDispatch() { ++dispatches_; }

    /**
     * Record @p n cycles at occupancy @p v in the per-cycle occupancy
     * distribution (the Figure 18 study reads station pressure off
     * it). The core samples occupancies into its own table and folds
     * them in here when it settles (see Core::settle).
     */
    void sampleOccupancy(std::uint64_t v, std::uint64_t n)
    {
        occupancy_.sample(static_cast<double>(v), n);
    }

    /** Write or read mutable state (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    unsigned entries_;
    unsigned dispatchWidth_;
    std::vector<std::uint64_t> seqs_; ///< kept sorted (oldest first).

    stats::Group statGroup_;
    stats::Scalar &inserts_;
    stats::Scalar &dispatches_;
    stats::Scalar &fullStalls_;
    stats::Distribution &occupancy_;

  public:
    /** Count issue stalls caused by this station being full. */
    void noteFullStall(std::uint64_t n = 1) { fullStalls_ += n; }
};

} // namespace s64v

#endif // S64V_CPU_RS_HH
