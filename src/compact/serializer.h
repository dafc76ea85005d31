// Serialization of CompactSpineIndex to a self-contained disk image.
//
// SPINE is self-contained: the vertebra labels encode the original
// string, so loading the image is all a reader needs (the paper's
// "the data string is not required any more" property).
//
// The bytes are canonical: an image is a function of the index alone,
// so Save after any open writes back exactly the bytes that were
// opened. Every open parses the image in memory through one loader
// (LoadCompactSpineFromMemory), whether the bytes are a mapping or a
// heap buffer read from the file.

#ifndef SPINE_COMPACT_SERIALIZER_H_
#define SPINE_COMPACT_SERIALIZER_H_

#include <cstdint>
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

// Reads the image at `path` into an 8-aligned heap buffer and loads it
// with LoadCompactSpineFromMemory (verify=true); the index borrows its
// flat tables from that buffer and keeps it alive. MemoryBytes() leaves
// the buffer (the file's size) out; a registry heap open adds it. Fails
// with kCorruption on bad magic/version/truncated data.
Result<CompactSpineIndex> LoadCompactSpine(const std::string& path);

// Stream variant of the writer, used to embed an index image inside a
// larger file (the generalized multi-string index). An embedded image
// must start at an 8-aligned offset so the memory loader below can
// point into it (v4 images align their arrays relative to the image
// start).
Status SaveCompactSpineToStream(const CompactSpineIndex& index,
                                std::ostream& out);

// Deserializes an image already resident in memory (an mmap'd
// artifact or a heap buffer), pointing the index's flat tables INTO
// [data, data + size) instead of copying. `data` must be 8-aligned.
// `keepalive` is retained by the returned index for as long as any
// table borrows from the buffer (pass the MmapRegion or the buffer;
// pass nullptr only when the caller guarantees the buffer outlives the
// index). With verify=true the whole-image CRC and structural
// Validate() run; verify=false skips both for O(tables) open cost and
// keeps only the bounds/geometry checks. Trailing bytes after the CRC
// footer are tolerated. The side-map records may come in any order.
Result<CompactSpineIndex> LoadCompactSpineFromMemory(
    const uint8_t* data, uint64_t size, bool verify,
    std::shared_ptr<const void> keepalive);

}  // namespace spine

#endif  // SPINE_COMPACT_SERIALIZER_H_
