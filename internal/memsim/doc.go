// Package memsim provides a deterministic discrete-event simulation of a
// hybrid DRAM/NVM memory subsystem, used as the substrate for the NVM-aware
// garbage collector reproduction.
//
// All costs are expressed in virtual nanoseconds (Time). Parallel phases
// (such as a stop-the-world GC with N threads) run one coroutine per
// simulated worker, stepped by a single dispatcher loop on the calling
// goroutine that always resumes the worker with the smallest virtual
// clock, so exactly one worker executes at any instant and the simulation
// is fully deterministic. The workers waiting to run sit in a winner tree
// over their packed (clock, id) keys (keyTree), whose root is the next to
// run and the key a running worker must stay below to keep the CPU. Every
// charged operation is an Issue* half and Exec; a body written in step form (Worker.Steps) keeps its position off
// the stack, so the running worker can advance a parked one without a
// coroutine switch, at the same position in global order.
//
// The device model captures the NVM properties the paper identifies as the
// root cause of copy-based GC slowdown:
//
//   - higher access latency than DRAM (2-3x),
//   - asymmetric peak bandwidth (read >> write),
//   - total bandwidth that collapses as the write fraction of the recent
//     traffic mix rises,
//   - a 256-byte internal access granularity that amplifies small random
//     accesses, and
//   - a non-temporal store path with higher sequential write bandwidth that
//     bypasses the cache hierarchy.
//
// A shared set-associative last-level cache with write-allocate/write-back
// semantics sits in front of all devices; software prefetches install
// lines with a future ready time so demand accesses pay only the remaining
// latency. Its per-way state is parallel arrays (key, replacement stamp,
// ready time, dirty flags) probed through a verified way predictor, with
// exact LRU replacement as a branch-free minimum over the stamps; see Cache.
package memsim
