// spine_tool command-line interface, factored into a library so the
// command implementations are unit-testable without spawning processes.
//
// Subcommands:
//   build <input.fa> <index.spine> [--alphabet=dna|protein|ascii]
//       Build a compact SPINE index from the first FASTA record.
//   gbuild <input.fa> <index.spineg> [--alphabet=...]
//       Index every record of a multi-FASTA file into one generalized
//       index (hits report record id + offset).
//   query <index> <pattern> [--kind=K] [--errors=N]
//       Answer one query of any kind (default findall); the approximate
//       kinds take an --errors budget.
//   batch <index.spine> <patterns.txt> [--threads=N] [--cache-mb=M]
//         [--min-len=N]
//       Execute a file of heterogeneous queries (findall / contains /
//       match / ms, one per line) concurrently through the batch
//       QueryEngine; results print in input order.
//   serve <artifact> [--port=N] [--host=ADDR] ...
//       Serve queries over TCP: the core/wire.h framed protocol with a
//       JSON-lines fallback. SIGTERM/SIGINT drains gracefully. See
//       docs/SERVING.md.
//   gquery <index.spineg> <pattern>
//       Like query, over a generalized index.
//   lrs <index.spine>
//       Longest repeated substring (max LEL over the backbone).
//   stats <index.spine>
//       Structure statistics: size, label maxima, fan-outs, bytes/char.
//   search <index.spine> <query.fa> [--min-len=N]
//       All maximal matching substrings of the query vs the index.
//   align <reference.fa> <query.fa> [--min-anchor=N] [--mum]
//       Anchor-chain alignment; prints coverage/identity.
//   generate <output.fa> [--length=N] [--seed=S] [--alphabet=dna|protein]
//       Write a synthetic repeat-rich sequence.

#ifndef SPINE_TOOLS_CLI_H_
#define SPINE_TOOLS_CLI_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace spine::cli {

// THE exit-code table: the single source of truth for what spine_tool
// returns to the shell. Extend-only — scripts and the CI smoke jobs
// match on these numbers, so existing entries must never be renumbered.
// ExitCodeFor() maps StatusCode onto it; tests/cli_test.cc asserts the
// mapping stays total and stable.
enum ExitCode : int {
  kExitOk = 0,
  kExitIoError = 1,            // kIoError
  kExitUsage = 2,              // malformed command line (no Status)
  kExitCorruption = 3,         // kCorruption
  kExitInvalidArgument = 4,    // kInvalidArgument
  kExitNotFound = 5,           // kNotFound
  kExitResourceExhausted = 6,  // kResourceExhausted
  kExitPrecondition = 7,       // kFailedPrecondition, kOutOfRange
  kExitOverloaded = 8,          // kOverloaded (server shed the query)
  kExitProtocolError = 9,       // kProtocolError (bad wire bytes)
  kExitDeadlineExceeded = 10,   // kDeadlineExceeded (time budget spent)
  kExitCancelled = 11,          // kCancelled (peer gone / shutdown)
};

// Maps a Status onto the table above. Usage errors (malformed command
// lines) return kExitUsage directly, bypassing this: there is no
// StatusCode for "you typed the flags wrong".
int ExitCodeFor(StatusCode code);

// Runs one invocation; `args` excludes the program name. Returns the
// process exit code (0 on success). All output goes to the streams.
int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace spine::cli

#endif  // SPINE_TOOLS_CLI_H_
