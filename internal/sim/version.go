package sim

// ModelVersion versions the simulator's *behavior*: the mapping from
// (device parameters, workload configuration) to golden cycle counts and
// memory-system statistics. It namespaces every entry of the persistent
// memo store (internal/memostore, via run.CacheVersion), which is what
// makes on-disk results trustworthy across restarts and deploys.
//
// The contract: any change that legitimately alters golden cycle counts —
// a timing-model fix, a new cost term, a changed replacement-policy detail —
// MUST bump this constant. The bump cleanly orphans every previously
// persisted result (old entries live under the old version namespace, are
// never looked up again, and `memo gc` reclaims them); forgetting the bump
// would let a restarted daemon serve results from the old model as if the
// change had never happened.
//
// Pure refactors, API changes, and performance work that the oracle tests
// pin as bit-identical do NOT bump it — that is the point: the fast paths
// of PRs 1/5 would have invalidated nothing.
//
// A change to how a memo entry is keyed or framed bumps run.CacheVersion's
// ".kN" suffix instead.
const ModelVersion = "1"
