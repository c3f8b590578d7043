package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// key derives a deterministic hex key for tests.
func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func openDir(t *testing.T) (*Dir, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := Open(dir, ".stg")
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch-000000.col")
	for _, blob := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(blob)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != blob {
			t.Fatalf("read back %q, %v; want %q", got, err, blob)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("dir holds %d entries (err %v), want only the final file", len(entries), err)
	}
}

func TestWriteFileReportsMissingDir(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "absent", "f"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestDirRoundTrip(t *testing.T) {
	d, _ := openDir(t)
	k := key("a")
	if _, st := d.Get(k); st != Miss {
		t.Fatalf("Get before Put = %v, want Miss", st)
	}
	payload := bytes.Repeat([]byte{0xAB, 0, 0xCD}, 1000)
	if err := d.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, st := d.Get(k)
	if st != OK || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %v, payload equal %v", st, bytes.Equal(got, payload))
	}
	d.Delete(k)
	if _, st := d.Get(k); st != Miss {
		t.Fatalf("Get after Delete = %v, want Miss", st)
	}
}

func TestDirRejectsInvalidKeys(t *testing.T) {
	d, dir := openDir(t)
	for _, k := range []string{"", "ABC", "../x", "g0", string(bytes.Repeat([]byte("a"), maxKey+1))} {
		if err := d.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
		if _, st := d.Get(k); st != Miss {
			t.Errorf("Get(%q) = %v, want Miss", k, st)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("invalid keys wrote %d files", len(entries))
	}
}

// TestEnvelopeRoundTrip: every truncation must fail verification,
// never mis-decode.
func TestEnvelopeRoundTrip(t *testing.T) {
	k := key("env")
	payload := bytes.Repeat([]byte{0xAB, 0, 0xCD}, 1000)
	blob := encode(k, payload)
	got, err := decode(blob, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after envelope round trip")
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := decode(blob[:cut], k); err == nil {
			t.Fatalf("truncated envelope at %d decoded", cut)
		}
	}
	if _, err := decode(append(blob, 0), k); err == nil {
		t.Fatal("envelope with trailing byte decoded")
	}
}

func TestBitFlipIsCorruptAndDeleted(t *testing.T) {
	d, dir := openDir(t)
	k := key("flip")
	if err := d.Put(k, []byte("content that will be damaged")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k+".stg")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st := d.Get(k); st != Corrupt {
		t.Fatalf("Get on flipped entry = %v, want Corrupt", st)
	}
	if exists(path) {
		t.Fatal("corrupt entry not deleted")
	}
	if _, st := d.Get(k); st != Miss {
		t.Fatalf("Get after corrupt delete = %v, want Miss", st)
	}
}

func TestCrossCopiedKeyRejected(t *testing.T) {
	d, dir := openDir(t)
	ka, kb := key("a"), key("b")
	if err := d.Put(ka, []byte("a-bytes")); err != nil {
		t.Fatal(err)
	}
	// a's entry under b's name: valid checksum, wrong identity.
	blob, err := os.ReadFile(filepath.Join(dir, ka+".stg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, kb+".stg"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st := d.Get(kb); st != Corrupt {
		t.Fatalf("cross-copied entry = %v, want Corrupt", st)
	}
	if got, st := d.Get(ka); st != OK || string(got) != "a-bytes" {
		t.Fatalf("original entry = %q, %v", got, st)
	}
}

func TestReplaySweepsJunkAndTemp(t *testing.T) {
	d, dir := openDir(t)
	good := key("good")
	if err := d.Put(good, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(tempPrefix+"123", "partial")       // crashed mid-write
	write(legacyTempPrefix+"456", "partial") // same, from an older build
	write("NOT-HEX.stg", "junk")             // a name no derivation produces
	write(key("torn")+".stg", magic+"trunc") // torn entry under a valid name
	write("README", "not ours")              // no suffix: left alone

	var seen []string
	restored, corrupt := d.Replay(func(k string, payload []byte) error {
		seen = append(seen, k)
		return nil
	})
	if restored != 1 || corrupt != 2 {
		t.Fatalf("Replay = (%d, %d), want (1, 2)", restored, corrupt)
	}
	if !reflect.DeepEqual(seen, []string{good}) {
		t.Fatalf("replayed %v, want only the good key", seen)
	}
	for _, name := range []string{tempPrefix + "123", legacyTempPrefix + "456", "NOT-HEX.stg", key("torn") + ".stg"} {
		if exists(filepath.Join(dir, name)) {
			t.Errorf("%s survived replay", name)
		}
	}
	if !exists(filepath.Join(dir, "README")) {
		t.Error("replay deleted a file it does not own")
	}
}

func TestReplaySortedOrder(t *testing.T) {
	d, _ := openDir(t)
	var want []string
	for _, s := range []string{"k3", "k1", "k4", "k0", "k2"} {
		k := key(s)
		if err := d.Put(k, []byte(s)); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	slices.Sort(want)
	var got []string
	d.Replay(func(k string, _ []byte) error {
		got = append(got, k)
		return nil
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay order %v, want %v", got, want)
	}
}

func TestReplayRejectionIsCorrupt(t *testing.T) {
	d, dir := openDir(t)
	keep, reject := key("keep"), key("reject")
	for _, k := range []string{keep, reject} {
		if err := d.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	restored, corrupt := d.Replay(func(k string, _ []byte) error {
		if k == reject {
			return errors.New("payload belongs to another key")
		}
		return nil
	})
	if restored != 1 || corrupt != 1 {
		t.Fatalf("Replay = (%d, %d), want (1, 1)", restored, corrupt)
	}
	if exists(filepath.Join(dir, reject+".stg")) {
		t.Fatal("rejected entry not deleted")
	}
	if !exists(filepath.Join(dir, keep+".stg")) {
		t.Fatal("accepted entry deleted")
	}
}

// TestGoldenEnvelope pins the wire format: an rcpt-stg/1 entry written
// by an older build (testdata, committed bytes) must still load, and
// today's encoder must reproduce it byte for byte.
func TestGoldenEnvelope(t *testing.T) {
	const k = "dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d"
	want := []byte("rcpt-stg/1 golden payload: stage bytes written by an older build\x00\x01\x02\xff")
	golden, err := os.ReadFile(filepath.Join("testdata", k+".stg"))
	if err != nil {
		t.Fatal(err)
	}
	d, dir := openDir(t)
	if err := os.WriteFile(filepath.Join(dir, k+".stg"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	got, st := d.Get(k)
	if st != OK || !bytes.Equal(got, want) {
		t.Fatalf("golden entry = %q, %v", got, st)
	}
	if !bytes.Equal(encode(k, want), golden) {
		t.Fatal("encoder no longer reproduces the golden envelope")
	}
}
