// Package durable is the repo's one crash-safe file idiom. Every store
// that must survive a kill at any instant — the serve spill, the stage
// cache's disk tier, the table spill — writes through WriteFile, and
// the two keyed stores keep their entries in a Dir.
//
// The determinism contract is what makes this small: a key names
// exactly one byte sequence, so an entry never needs updating, only
// writing once and verifying on every read. The only failure mode is
// damage (torn write, bit rot, a file copied under the wrong name),
// and damage is always recoverable by recomputing — so a corrupt entry
// is deleted and reported, never repaired or trusted.
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// tempPrefix names in-flight writes. Readers only ever open final
// names, so a temp file a crash leaves behind is invisible until Replay
// sweeps it.
const tempPrefix = ".spill-"

// legacyTempPrefix is the temp prefix older builds of the stage cache
// used; Replay sweeps its leftovers too.
const legacyTempPrefix = ".stg-"

// WriteFile writes blob to path crash-safely: into a temp file in the
// same directory, fsynced, closed, atomically renamed over path, and
// then the directory fsynced (best effort — some filesystems refuse
// directory fsync, and the rename is atomic without it). A kill at any
// instant leaves either the old state or the new one under path, never
// a torn file.
func WriteFile(path string, blob []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(blob); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Status classifies one Dir read.
type Status int

const (
	Miss    Status = iota // no entry under the key
	OK                    // entry read and verified
	Corrupt               // entry failed verification and was deleted
)

// Dir is a directory of content-addressed entries, one file per key
// named <key><suffix>. Keys are lowercase hex of at most maxKey bytes —
// the digests the callers derive — so a key is always a safe file name.
// Safe for concurrent use: writers of one key write identical bytes,
// and the rename makes either copy win whole.
type Dir struct {
	dir    string
	suffix string
}

// Open returns the Dir rooted at dir (created if needed) whose entries
// carry the given file-name suffix.
func Open(dir, suffix string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &Dir{dir: dir, suffix: suffix}, nil
}

func (d *Dir) path(key string) string { return filepath.Join(d.dir, key+d.suffix) }

// Put stores payload under key crash-safely.
func (d *Dir) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("durable: invalid key %q", key)
	}
	return WriteFile(d.path(key), encode(key, payload))
}

// Get reads and verifies the entry under key. A corrupt entry is
// deleted so it is never retried. The payload aliases the file's bytes
// and is the caller's to keep.
func (d *Dir) Get(key string) ([]byte, Status) {
	if !validKey(key) {
		return nil, Miss
	}
	blob, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, Miss
	}
	payload, err := decode(blob, key)
	if err != nil {
		os.Remove(d.path(key))
		return nil, Corrupt
	}
	return payload, OK
}

// Delete removes the entry under key, if any.
func (d *Dir) Delete(key string) {
	if validKey(key) {
		os.Remove(d.path(key))
	}
}

// Replay is the warm start: it visits every entry in sorted name order
// (os.ReadDir's documented order, so replay never depends on the
// filesystem's), verifies it end to end and hands its payload to fn.
// Leftover temp files are swept. An entry that fails verification, a
// suffixed name that is not a valid key, and an entry fn rejects are
// deleted and counted corrupt; files without the suffix are left
// alone.
func (d *Dir) Replay(fn func(key string, payload []byte) error) (restored, corrupt int) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, 0
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tempPrefix) || strings.HasPrefix(name, legacyTempPrefix) {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		key, ok := strings.CutSuffix(name, d.suffix)
		if !ok {
			continue
		}
		if !validKey(key) {
			os.Remove(filepath.Join(d.dir, name))
			corrupt++
			continue
		}
		payload, status := d.Get(key)
		switch {
		case status == Miss:
		case status == Corrupt:
			corrupt++
		case fn(key, payload) != nil:
			d.Delete(key)
			corrupt++
		default:
			restored++
		}
	}
	return restored, corrupt
}

// validKey reports whether key is non-empty lowercase hex of at most
// maxKey bytes. Anything else never touches the filesystem.
func validKey(key string) bool {
	if key == "" || len(key) > maxKey {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Entry envelope ("rcpt-stg/1"):
//
//	magic   "rcpt-stg/1\n"
//	keylen  uvarint
//	key     keylen bytes — echoes the file name's key
//	paylen  uvarint
//	sha256  32 bytes — checksum of the payload
//	payload paylen bytes
//
// The key echo is what turns a renamed or cross-copied file into
// corruption instead of another key's valid bytes.
const (
	magic      = "rcpt-stg/1\n"
	maxKey     = 128
	maxPayload = 1 << 31
)

// encode frames payload under key.
func encode(key string, payload []byte) []byte {
	b := make([]byte, 0, len(magic)+2*binary.MaxVarintLen64+len(key)+sha256.Size+len(payload))
	b = append(b, magic...)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	b = append(b, sum[:]...)
	return append(b, payload...)
}

// decode verifies one envelope against wantKey and returns its payload.
// It accepts exactly the bytes encode produces: lengths must be minimal
// varints and the blob must end where the payload does.
func decode(blob []byte, wantKey string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(blob, []byte(magic))
	if !ok {
		return nil, errors.New("bad magic")
	}
	keyLen, n := Uvarint(rest)
	if n <= 0 || keyLen > maxKey || uint64(len(rest)-n) < keyLen {
		return nil, errors.New("bad key length")
	}
	rest = rest[n:]
	if string(rest[:keyLen]) != wantKey {
		return nil, errors.New("key mismatch")
	}
	rest = rest[keyLen:]
	payLen, n := Uvarint(rest)
	if n <= 0 || payLen > maxPayload {
		return nil, errors.New("bad payload length")
	}
	rest = rest[n:]
	if uint64(len(rest)) != sha256.Size+payLen {
		return nil, errors.New("truncated")
	}
	payload := rest[sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(rest[:sha256.Size]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// Uvarint is binary.Uvarint that also rejects non-minimal encodings
// (n <= 0), so every header an envelope decoder accepts re-encodes to
// the same bytes. Both envelopes (rcpt-stg here, rcpt-col in table)
// read their lengths through it.
func Uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}
