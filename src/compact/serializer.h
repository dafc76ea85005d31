// Serialization of CompactSpineIndex to a self-contained disk image.
//
// SPINE is self-contained: the vertebra labels encode the original
// string, so loading the image is all a reader needs (the paper's
// "the data string is not required any more" property).

#ifndef SPINE_COMPACT_SERIALIZER_H_
#define SPINE_COMPACT_SERIALIZER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "common/crc32c.h"
#include "common/status.h"
#include "compact/compact_spine.h"

namespace spine {

// Writes the index to `path`, replacing any existing file. `written`,
// when non-null, receives the size and CRC32C of the bytes handed to
// the file.
Status SaveCompactSpine(const CompactSpineIndex& index,
                        const std::string& path,
                        FileChecksum* written = nullptr);

// Loads an index previously written by SaveCompactSpine. Fails with
// kCorruption on bad magic/version/truncated data.
Result<CompactSpineIndex> LoadCompactSpine(const std::string& path);

// Stream variants (used to embed an index image inside a larger file,
// e.g. the generalized multi-string index). An embedded image must
// start at an 8-aligned stream offset so the zero-copy loader below
// can point into it (v4 images align their arrays relative to the
// image start).
Status SaveCompactSpineToStream(const CompactSpineIndex& index,
                                std::ostream& out);
Result<CompactSpineIndex> LoadCompactSpineFromStream(std::istream& in);

// Zero-copy variant: deserializes an image already resident in memory
// (an mmap'd artifact), pointing the index's flat tables INTO
// [data, data + size) instead of copying. `data` must be 8-aligned.
// `keepalive` is retained by the returned index for as long as any
// table borrows from the buffer (pass the MmapRegion; pass nullptr
// only when the caller guarantees the buffer outlives the index).
// With verify=true the whole-image CRC and structural Validate() run
// exactly as in the heap path, so both opens reach identical verdicts
// on any image; verify=false skips both for O(tables) open cost and
// keeps only the bounds/geometry checks. `consumed`, when non-null,
// receives the image's byte length (header through CRC footer) —
// trailing bytes in the buffer are tolerated, as on the stream path.
Result<CompactSpineIndex> LoadCompactSpineFromMemory(
    const uint8_t* data, uint64_t size, bool verify,
    std::shared_ptr<const void> keepalive, uint64_t* consumed = nullptr);

}  // namespace spine

#endif  // SPINE_COMPACT_SERIALIZER_H_
