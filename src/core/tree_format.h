// On-disk format of the Coconut-Tree index file.
//
// Layout (single file):
//   [superblock: 4096 bytes]
//   [leaf pages, contiguous, fixed size]          <- bulk-loaded in key order
//   [internal level 0 pages][level 1]...[root]    <- built bottom-up
//
// Leaf entries are fixed size:
//   non-materialized: [ZKey: 32 bytes BE][raw-file offset: 8 bytes LE]
//   materialized:     [ZKey: 32][offset: 8][series: length * 4 bytes]
// Leaves are packed at entries_per_leaf records (fill factor applied); the
// last leaf may be short. Because leaves are contiguous and uniformly
// packed, entry i lives in leaf i / entries_per_leaf at slot
// i % entries_per_leaf — no per-page directory is needed, and "pointers
// between neighboring leaves" (paper §4.3) are implicit in contiguity.
//
// Internal pages hold [count: 8][(first-key: 32, child: 8) x count]; child
// ids index into the level below (leaf index at the bottom internal level).
// All internal levels are loaded into memory on open (paper §3.1: "the
// index's internal nodes for most applications fit in main memory").
//
// Version 2 appends an integrity section after the internal levels (at
// integrity_offset):
//   [leaf-page CRC32C: 4 bytes LE, one per leaf][internal-region CRC32C: 4]
// plus three superblock fields: integrity_offset, sidecar_crc (CRC32C of
// the whole .sax sidecar) and superblock_crc (CRC32C of the superblock
// struct with that field zeroed, stamped last). Readers verify the
// superblock on open, the internal region while loading it, each leaf page
// on read, and the sidecar when it is first materialized. Version 1 files
// (no checksums) still open.
#ifndef COCONUT_CORE_TREE_FORMAT_H_
#define COCONUT_CORE_TREE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/status.h"
#include "src/common/zkey.h"
#include "src/core/coconut_options.h"

namespace coconut {

inline constexpr uint64_t kTreeMagic = 0x31454552544E4343ull;  // "CCNTREE1"
inline constexpr size_t kSuperblockBytes = 4096;
inline constexpr size_t kInternalPageBytes = 4096;
inline constexpr size_t kInternalEntryBytes = ZKey::kBytes + 8;  // key+child
inline constexpr size_t kInternalFanout =
    (kInternalPageBytes - 8) / kInternalEntryBytes;
inline constexpr size_t kMaxLevels = 10;

/// Fixed-layout superblock. Trivially copyable; written/read via memcpy into
/// the 4 KiB superblock page.
struct TreeSuperblock {
  uint64_t magic = kTreeMagic;
  uint64_t version = 2;
  uint64_t materialized = 0;
  uint64_t series_length = 0;
  uint64_t segments = 0;
  uint64_t cardinality_bits = 0;
  uint64_t leaf_capacity = 0;
  uint64_t entries_per_leaf = 0;
  uint64_t entry_bytes = 0;
  uint64_t leaf_page_bytes = 0;
  uint64_t num_entries = 0;
  uint64_t num_leaves = 0;
  uint64_t num_internal_levels = 0;
  uint64_t level_file_offset[kMaxLevels] = {};
  uint64_t level_page_count[kMaxLevels] = {};
  /// v2: file offset of the integrity section (0 in v1 files).
  uint64_t integrity_offset = 0;
  /// v2: CRC32C of the entire .sax sidecar file.
  uint32_t sidecar_crc = 0;
  /// v2: CRC32C of this struct with this field zeroed. Stamped last.
  uint32_t superblock_crc = 0;

  Status Check() const {
    if (magic != kTreeMagic) return Status::Corruption("bad tree magic");
    if (version != 1 && version != 2) {
      return Status::Corruption("unsupported tree version");
    }
    return Status::OK();
  }

  bool has_checksums() const { return version >= 2; }
};
static_assert(sizeof(TreeSuperblock) <= kSuperblockBytes);
static_assert(std::is_trivially_copyable_v<TreeSuperblock>);

/// Little-endian CRC32C encoding used by the integrity sections of both the
/// tree and the trie (coconut_trie.h): written by their builders, decoded by
/// ReadIntegritySection (sims_common.h).
inline void AppendCrcLE(uint32_t crc, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(crc));
  out->push_back(static_cast<uint8_t>(crc >> 8));
  out->push_back(static_cast<uint8_t>(crc >> 16));
  out->push_back(static_cast<uint8_t>(crc >> 24));
}

inline uint32_t DecodeCrc32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// CRC32C of a tree or trie superblock struct with its superblock_crc field
/// zeroed: stamped last by the builders, checked first by Open.
template <typename Superblock>
uint32_t SuperblockCrc(Superblock super) {
  super.superblock_crc = 0;
  return crc32c::Value(&super, sizeof(super));
}

/// Size of one leaf entry for the given options.
inline size_t LeafEntryBytes(const CoconutOptions& opts) {
  size_t n = ZKey::kBytes + 8;
  if (opts.materialized) n += opts.summary.series_length * sizeof(float);
  return n;
}

/// Encodes a leaf entry into `out` (entry_bytes). `series` may be null for
/// non-materialized entries.
inline void EncodeLeafEntry(const ZKey& key, uint64_t offset,
                            const float* series, size_t series_length,
                            uint8_t* out) {
  key.SerializeBE(out);
  std::memcpy(out + ZKey::kBytes, &offset, sizeof(offset));
  if (series != nullptr) {
    std::memcpy(out + ZKey::kBytes + 8, series,
                series_length * sizeof(float));
  }
}

inline ZKey DecodeLeafEntryKey(const uint8_t* entry) {
  return ZKey::DeserializeBE(entry);
}

inline uint64_t DecodeLeafEntryOffset(const uint8_t* entry) {
  uint64_t offset;
  std::memcpy(&offset, entry + ZKey::kBytes, sizeof(offset));
  return offset;
}

/// Pointer to the inline series payload of a materialized entry.
inline const float* LeafEntrySeries(const uint8_t* entry) {
  return reinterpret_cast<const float*>(entry + ZKey::kBytes + 8);
}

}  // namespace coconut

#endif  // COCONUT_CORE_TREE_FORMAT_H_
