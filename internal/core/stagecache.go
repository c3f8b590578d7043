package core

// The Merkle stage cache: content-addressed reuse of individual stage
// outputs across runs. Every cacheable stage in the run DAG gets a key
//
//	SHA-256(stage name ‖ version tag ‖ config fields the stage reads
//	        ‖ sorted upstream stage keys)
//
// derived while buildGraph registers stages (registration order is
// topological, so upstream keys always exist by the time a dependent
// derives). The config-field subset is declared per stage below —
// narrower than Config.Fingerprint on purpose: TraceScale must
// invalidate trace stages but not cohort stages, Policy must invalidate
// only sim-policy, and execution knobs (Workers, Table) stay excluded
// exactly as the fingerprint contract demands. Upstream keys carry
// everything else: a change to any ancestor's inputs ripples down the
// Merkle chain, so there is no invalidation protocol at all — an entry
// under a key is valid forever.
//
// A stage wrapped by the cache loads its key first: on a hit it decodes
// the stored payload into the artifact slots the stage body would have
// written and skips the body entirely (for trace stages that includes
// the cluster steal hook — a hit never leaves the process); on a miss
// it runs the body, then encodes and stores. Skipping bodies is safe
// under the repo's rng discipline: streams are split off the root *by
// name inside each body* and SplitNamed never advances the parent, so
// an unexecuted stage leaves every other stage's draws untouched.
//
// Failure contract ("faults cost latency, never bytes"): the store
// checksums payloads and deletes what fails verification; a payload
// that decodes as structurally invalid despite a valid checksum (codec
// skew) is deleted and the stage recomputes; encode errors skip the
// store and the run proceeds on the freshly computed values.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// StageCache is the store the run DAG consults for stage outputs. Keys
// are opaque hex digests; payloads are opaque bytes (see stagecodec.go
// for what goes in them). internal/stagecache provides the production
// implementation; the interface keeps core free of the storage detail
// and lets tests substitute simple fakes.
//
// Load returns a payload previously Stored under key. Store is
// best-effort (a cache may bound, shed, or spill as it likes). Delete
// removes an entry core found undecodable so it is never retried.
// Implementations must be safe for concurrent use — stages load and
// store in parallel.
type StageCache interface {
	Load(key string) ([]byte, bool)
	Store(key string, payload []byte)
	Delete(key string)
}

// stageKeyVersion versions the key derivation itself: bumping it
// orphans every previously derived key at once.
const stageKeyVersion = "rcpt-stage/1"

// Per-stage-kind version tags. Bump a tag when the stage's
// implementation or payload encoding changes meaning, so stale entries
// miss instead of decoding into wrong values.
const (
	verCohort      = "cohort/1"
	verPanel       = "panel/1"
	verRake        = "rake/1"
	verCohortTable = "cohort-table/1"
	verTrace       = "trace/1"
	verModlog      = "modlog/1"
	verModAgg      = "modagg/1"
	verSimPolicy   = "sim-policy/1"
	verSimFCFS     = "sim-fcfs/1"
	verSimCons     = "sim-conservative/1"
)

// deriveStageKey computes one stage's content key. inputs is the
// stage's canonical config-field encoding ("k=v\n" lines, same style as
// Config.Fingerprint); upstream is the keys of its cacheable
// dependencies, order-insensitive (sorted here).
func deriveStageKey(name, version, inputs string, upstream []string) string {
	var b strings.Builder
	b.WriteString(stageKeyVersion)
	b.WriteByte('\n')
	b.WriteString("stage=")
	b.WriteString(name)
	b.WriteByte('\n')
	b.WriteString("version=")
	b.WriteString(version)
	b.WriteByte('\n')
	b.WriteString("inputs=")
	b.WriteString(inputs)
	b.WriteByte('\n')
	ups := append([]string(nil), upstream...)
	sort.Strings(ups)
	for _, u := range ups {
		b.WriteString("up=")
		b.WriteString(u)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Per-stage config-field subsets. Each function encodes exactly the
// fields its stage kind reads — the invalidation matrix in DESIGN.md
// "Incremental recomputation" is the human-readable form of these.
// Float fields use %b for the same exact-bit-pattern reason as
// Config.Fingerprint.

// cohortInputs: a cohort stage reads the seed, its own cohort size, and
// the noise rate. The other cohort's size, trace config, policy, panel
// size — all irrelevant to its bytes.
func cohortInputs(cfg Config, n int) string {
	return fmt.Sprintf("seed=%d\nn=%d\nnoiserate=%b\n", cfg.Seed, n, cfg.NoiseRate)
}

// panelInputs: the panel reads the seed and its size.
func panelInputs(cfg Config) string {
	return fmt.Sprintf("seed=%d\npaneln=%d\n", cfg.Seed, cfg.PanelN)
}

// traceInputs: a (year, rep) trace stage reads only the seed — year and
// replica are in the stage name, and raising TraceScale adds stages
// without renaming existing ones, so a 10×-scale run reuses every
// replica a 5×-scale run already cached.
func traceInputs(cfg Config) string {
	return fmt.Sprintf("seed=%d\n", cfg.Seed)
}

// modlogInputs: a telemetry year reads only the seed (year in the name).
func modlogInputs(cfg Config) string {
	return fmt.Sprintf("seed=%d\n", cfg.Seed)
}

// simPolicyInputs: the policy simulation reads the policy; its trace
// inputs ride in through upstream keys. The FCFS and conservative
// baselines hardcode their policies, so their inputs are empty.
func simPolicyInputs(cfg Config) string {
	return fmt.Sprintf("policy=%d\n", int(cfg.Policy))
}

// stageCacher threads the cache through buildGraph: derive records
// keys as stages register, wrap turns a stage body into
// load-or-(compute-and-store). A nil *stageCacher (cache disabled) is
// valid and makes both no-ops, so buildGraph stays branch-free.
type stageCacher struct {
	cache StageCache
	keys  map[string]string
}

func newStageCacher(cache StageCache) *stageCacher {
	if cache == nil {
		return nil
	}
	return &stageCacher{cache: cache, keys: map[string]string{}}
}

// derive computes and records name's key. deps name upstream stages
// whose keys must already have been derived — buildGraph registers in
// topological order, so a miss is a wiring bug, not a runtime state.
func (sc *stageCacher) derive(name, version, inputs string, deps ...string) {
	if sc == nil {
		return
	}
	ups := make([]string, len(deps))
	for i, d := range deps {
		k, ok := sc.keys[d]
		if !ok {
			panic(fmt.Sprintf("core: stage %q derives from %q before its key exists", name, d))
		}
		ups[i] = k
	}
	sc.keys[name] = deriveStageKey(name, version, inputs, ups)
}

// wrap returns the cache-aware form of a stage body. enc snapshots the
// stage's freshly computed output (called at the end of a successful
// body, before any dependent stage can run — so for stages whose
// outputs are later mutated in place, like cohorts ahead of raking, the
// payload captures exactly the at-completion state); dec restores a
// stored payload into the same artifact slots.
func (sc *stageCacher) wrap(name string, body func() error, enc func() ([]byte, error), dec func([]byte) error) func() error {
	if sc == nil {
		return body
	}
	key, ok := sc.keys[name]
	if !ok {
		panic(fmt.Sprintf("core: stage %q wrapped before its key was derived", name))
	}
	return func() error {
		if payload, hit := sc.cache.Load(key); hit {
			if err := restorePayload(dec, payload); err == nil {
				return nil
			}
			// Valid checksum, invalid structure: codec skew or a damaged
			// store. Drop the entry and recompute — the cache may only
			// ever cost latency.
			sc.cache.Delete(key)
		}
		if err := body(); err != nil {
			return err
		}
		if payload, err := enc(); err == nil {
			sc.cache.Store(key, payload)
		}
		return nil
	}
}

// restorePayload applies a decoder under a panic guard: a payload
// malformed in a way the decoder's structural checks miss must degrade
// to a recompute, never take down the run.
func restorePayload(dec func([]byte) error, payload []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: stage restore panicked: %v", p)
		}
	}()
	return dec(payload)
}

// EncodeTraceStagePayload frames one trace table as the stage-cache
// payload the trace stages store — exported with DecodeTraceStagePayload
// so benchmarks outside core can time the exact encoding.
func EncodeTraceStagePayload(tab trace.JobTable) ([]byte, error) {
	return encodeTablePayload(payloadJobs, trace.JobCodec{}, tab)
}

// DecodeTraceStagePayload reverses EncodeTraceStagePayload.
func DecodeTraceStagePayload(payload []byte) (trace.JobTable, error) {
	return decodeTablePayload(payloadJobs, trace.JobCodec{}, payload)
}
