#ifndef NIMBUS_MARKET_FORMAT_UPGRADE_H_
#define NIMBUS_MARKET_FORMAT_UPGRADE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace nimbus::market {

// Converts the files earlier builds left at `journal_path` to the
// current formats — the only code that knows the old ones:
//   - a `.prev` segment (snapshot format 2's rotating journal) is sealed
//     when it is the only copy of the live rows, and deleted once sealed
//     segments and the live segment cover it;
//   - the LEDG rows of version-1/2 snapshots move into `<journal>.seg.0`
//     below the first segment, then the snapshots become version 3;
//   - segments with the base-0 "NIMBUSJ1" header get the "NIMBUSJ2" one.
// Marketplace::RestoreFromCheckpoint calls it once, before the ladder,
// with the generations snapshot::ListGenerations found. Each file is
// committed by temp write, fsync, rename and directory fsync, in an
// order that never drops the last copy of a row, so a crash anywhere
// leaves a directory the next call finishes; on a converted directory
// it changes nothing and only opens file headers. It converts formats
// and validates nothing else: a legacy snapshot that does not decode is
// left for snapshot::Read to reject, and the ladder falls back a rung.
Status UpgradeLegacyFormat(const std::string& journal_path,
                           const std::vector<int64_t>& generations);

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_FORMAT_UPGRADE_H_
