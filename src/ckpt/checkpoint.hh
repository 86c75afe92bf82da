/**
 * @file
 * Whole-system checkpoint orchestration: serialize every stateful
 * unit of a System into one snapshot file, and restore a freshly
 * constructed System (same params, same traces attached) to continue
 * bit-identically from the captured cycle.
 *
 * A checkpoint is cut at a cycle boundary: the snapshot is taken
 * after every tick and probe of cycle C has run, and the restored
 * run's kernel starts at C + 1. The file carries the producing model
 * version, a configuration fingerprint, and per-CPU trace identity
 * hashes; restore validates all three before touching any component,
 * so a snapshot from a different build, configuration, or workload
 * fails fast with a diagnostic instead of diverging silently.
 */

#ifndef S64V_CKPT_CHECKPOINT_HH
#define S64V_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <string>

namespace s64v
{

class System;

namespace ckpt
{

/**
 * Layout of a checkpoint's sections, the first value of its "config"
 * section; bumped on any change to the state a checkpoint carries.
 */
constexpr std::uint32_t kCheckpointLayout = 2;

/**
 * Write @p system's full state to @p path (atomic temp-file +
 * rename). The System's RunContinuation must already point at the
 * first unsimulated cycle. Fails via fatal() on I/O errors.
 */
void writeSystemCheckpoint(System &system, const std::string &path);

/**
 * Restore @p system from the snapshot at @p path. @p system must be
 * freshly constructed with the same SystemParams and have the same
 * traces attached to every CPU; anything else, and any damage to the
 * file, is rejected via fatal() naming the file. After this call,
 * System::run() resumes at the cycle after the checkpoint and the run
 * completes bit-identically to one that was never interrupted.
 */
void restoreSystemCheckpoint(System &system, const std::string &path);

} // namespace ckpt
} // namespace s64v

#endif // S64V_CKPT_CHECKPOINT_HH
