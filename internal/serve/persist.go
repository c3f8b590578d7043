package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/durable"
	"repro/internal/obs"
)

// diskStore spills completed rendered artifacts to a durable.Dir so a
// crashed or restarted daemon warm-starts its cache instead of
// recomputing every run. The determinism contract makes this safe: a
// cacheKey identifies exactly one byte sequence, so a spilled entry can
// be trusted forever — the only failure mode is damage, which the
// envelope's checksum and key echo catch on load.
type diskStore struct {
	dir *durable.Dir

	spill     *obs.CounterVec // outcome: ok | error
	warmstart *obs.CounterVec // outcome: restored | corrupt
	diskHits  *obs.Counter
}

// spillBody is the JSON payload of one spilled entry. It carries its
// own key triple so a load can prove the entry was rendered for the
// key it was filed under.
type spillBody struct {
	Fingerprint string `json:"fingerprint"`
	Artifact    string `json:"artifact"`
	Format      string `json:"format"`
	ContentType string `json:"contentType"`
	Body        []byte `json:"body"` // base64 via encoding/json
}

// newDiskStore opens (creating if needed) the spill directory.
func newDiskStore(dir string, spill, warmstart *obs.CounterVec, diskHits *obs.Counter) (*diskStore, error) {
	d, err := durable.Open(dir, ".json")
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &diskStore{dir: d, spill: spill, warmstart: warmstart, diskHits: diskHits}, nil
}

// spillName maps a cache key onto its entry name: the hex SHA-256 of
// the key triple. Content-addressed naming means concurrent spills of
// the same key converge on the same file with identical bytes.
func spillName(key cacheKey) string {
	sum := sha256.Sum256([]byte(key.fingerprint + "\x00" + key.artifact + "\x00" + key.format))
	return hex.EncodeToString(sum[:])
}

// save spills one entry crash-safely. Spill failures are counted, never
// fatal: the cache keeps working from memory.
func (d *diskStore) save(key cacheKey, e cacheEntry) {
	blob, err := json.Marshal(spillBody{
		Fingerprint: key.fingerprint,
		Artifact:    key.artifact,
		Format:      key.format,
		ContentType: e.contentType,
		Body:        e.body,
	})
	if err == nil {
		err = d.dir.Put(spillName(key), blob)
	}
	if err != nil {
		d.spill.With("error").Inc()
		return
	}
	d.spill.With("ok").Inc()
}

// load reads one entry back by key. A damaged entry, or one rendered
// for another key, is removed and reported absent.
func (d *diskStore) load(key cacheKey) (cacheEntry, bool) {
	name := spillName(key)
	payload, status := d.dir.Get(name)
	if status != durable.OK {
		return cacheEntry{}, false
	}
	_, e, err := decodeSpill(name, payload)
	if err != nil {
		d.dir.Delete(name)
		return cacheEntry{}, false
	}
	d.diskHits.Inc()
	return e, true
}

// decodeSpill parses one payload and checks that its key triple hashes
// to the name it was filed under.
func decodeSpill(name string, payload []byte) (cacheKey, cacheEntry, error) {
	var b spillBody
	if err := json.Unmarshal(payload, &b); err != nil {
		return cacheKey{}, cacheEntry{}, err
	}
	key := cacheKey{fingerprint: b.Fingerprint, artifact: b.Artifact, format: b.Format}
	if spillName(key) != name {
		return cacheKey{}, cacheEntry{}, errors.New("serve: spilled entry belongs to another key")
	}
	return key, cacheEntry{body: b.Body, etag: etagFor(b.Body), contentType: b.ContentType}, nil
}

// loadAll replays every valid spilled entry into fn (warm start),
// counting restored and corrupt files. Entries from older builds, whose
// spill files had no rcpt-stg envelope, count as corrupt once and are
// recomputed on demand with the same ETag.
func (d *diskStore) loadAll(fn func(key cacheKey, e cacheEntry)) {
	restored, corrupt := d.dir.Replay(func(name string, payload []byte) error {
		key, e, err := decodeSpill(name, payload)
		if err == nil {
			fn(key, e)
		}
		return err
	})
	// Only outcomes that occurred get a series, as with Inc.
	if restored > 0 {
		d.warmstart.With("restored").Add(uint64(restored))
	}
	if corrupt > 0 {
		d.warmstart.With("corrupt").Add(uint64(corrupt))
	}
}
