package service

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"listcolor/internal/graph"
)

// churnedService builds a service and pushes it through some churn so
// checkpoints cover a non-trivial state (patched overlay, grown node
// set, rewritten lists).
func churnedService(t *testing.T, batches int, opts Options) *Service {
	t.Helper()
	base := graph.StreamedRing(64)
	inst := slackInstance(base)
	s := mustService(t, base, inst, opts)
	script := churnScript(base, batches, 16, 3)
	fillSetLists(script, inst.Space)
	for _, ops := range script {
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatalf("churn batch: %v", err)
		}
	}
	return s
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := churnedService(t, 12, Options{})
	cs := s.stateImage()
	cs.walSegment = 5
	back, err := decodeCheckpoint(encodeCheckpoint(cs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.version != cs.version || back.space != cs.space || back.walSegment != 5 {
		t.Fatalf("scalar drift: %+v vs %+v", back, cs)
	}
	if !reflect.DeepEqual(back.colors, cs.colors) {
		t.Fatal("colors drift")
	}
	if !reflect.DeepEqual(back.lists, cs.lists) || !reflect.DeepEqual(back.defects, cs.defects) {
		t.Fatal("constraint drift")
	}
	// rowsUp: nil and empty are the same row on the wire.
	for v := range cs.rowsUp {
		if len(cs.rowsUp[v]) == 0 && len(back.rowsUp[v]) == 0 {
			continue
		}
		if !reflect.DeepEqual(back.rowsUp[v], cs.rowsUp[v]) {
			t.Fatalf("row %d drift: %v vs %v", v, back.rowsUp[v], cs.rowsUp[v])
		}
	}
	if !reflect.DeepEqual(back.totals.counterList(), cs.totals.counterList()) {
		t.Fatal("counter drift")
	}
}

// TestCheckpointRestoreMatchesLive pins the restore path: a service
// rebuilt from its own checkpoint serves the same colors, canonical
// stats and topology fingerprint as the live one, and audits clean.
func TestCheckpointRestoreMatchesLive(t *testing.T) {
	s := churnedService(t, 12, Options{})
	cs := s.stateImage()
	r, err := restoreService(decodeMust(t, cs), Options{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(r.Snapshot().Colors, s.Snapshot().Colors) {
		t.Fatal("colors drift")
	}
	if r.TopologyFingerprint() != s.TopologyFingerprint() {
		t.Fatal("fingerprint drift")
	}
	if got, want := CanonicalStats(r.Stats()), CanonicalStats(s.Stats()); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats drift:\n got %+v\nwant %+v", got, want)
	}
	if err := r.ValidateState(); err != nil {
		t.Fatalf("restored state invalid: %v", err)
	}
}

func decodeMust(t *testing.T, cs *checkpointState) *checkpointState {
	t.Helper()
	back, err := decodeCheckpoint(encodeCheckpoint(cs))
	if err != nil {
		t.Fatalf("checkpoint round trip: %v", err)
	}
	return back
}

// TestCheckpointFileDamage: every damaged on-disk image is rejected
// with a typed error — truncation, byte flips, missing magic — and a
// missing file surfaces os.ErrNotExist for the caller's fresh-dir
// branch.
func TestCheckpointFileDamage(t *testing.T) {
	dir := t.TempDir()
	if _, err := readCheckpoint(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: %v", err)
	}
	s := churnedService(t, 6, Options{})
	cs := s.stateImage()
	if err := writeCheckpoint(dir, cs); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := readCheckpoint(dir); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	path := filepath.Join(dir, checkpointFile)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"truncated":    img[:len(img)/2],
		"flipped byte": flipByte(img, len(img)/2),
		"flipped crc":  flipByte(img, len(img)-1),
		"wrong magic":  flipByte(img, 0),
		"only magic":   img[:8],
		"empty":        {},
	}
	for name, bad := range damage {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readCheckpoint(dir); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("%s: err = %v, want ErrCheckpoint", name, err)
		}
	}
	// Rewriting through writeCheckpoint replaces the damaged file
	// atomically; the re-read state matches.
	if err := writeCheckpoint(dir, cs); err != nil {
		t.Fatal(err)
	}
	back, err := readCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.version != cs.version || !reflect.DeepEqual(back.colors, cs.colors) {
		t.Fatal("rewritten checkpoint drift")
	}
}

// checkpointV01 is a well-formed checkpoint file in the retired
// LCCKPT01 layout (7-node ring-derived state, version 1, WAL segment
// 2), as the LCCKPT01 writer produced it: its counter block carries
// four more counters than today's and is followed by two per-shard
// counter slices.
const checkpointV01 = "4c43434b50543031010700020002000200030103000204030000000000000000000301020201010101010101010000020400000000000000000000000000000002e44baa7d"

// TestCheckpointDecodeHostileInput: declared lengths beyond the input
// are rejected before allocation, mirroring the WAL decoder's bound,
// and a file in a retired format is rejected by its magic instead of
// being misread.
func TestCheckpointDecodeHostileInput(t *testing.T) {
	v01, err := hex.DecodeString(checkpointV01)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []struct {
		name string
		img  []byte
	}{
		{"empty payload", checkpointImage(nil)},
		{"version only", checkpointImage([]byte{0x01})},
		{"~4·10⁹ nodes, no bytes", checkpointImage([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})},
		{"truncated mid-lists", checkpointImage([]byte{0x01, 0x02, 0x00, 0x00, 0x04, 0x02})},
		{"LCCKPT01 image", v01},
		// The same payload under today's magic and a valid CRC: the
		// decoder must still refuse it rather than read the old
		// counter block as today's.
		{"LCCKPT01 payload, current magic", checkpointImage(v01[len(checkpointMagic) : len(v01)-4])},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, checkpointFile)
	for _, h := range hostile {
		if err := os.WriteFile(path, h.img, 0o644); err != nil {
			t.Fatal(err)
		}
		if cs, err := readCheckpoint(dir); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("%s: err = %v (state %+v), want ErrCheckpoint", h.name, err, cs)
		}
	}
}

// checkpointImage frames a payload the way writeCheckpoint does:
// current magic, payload, CRC-32C trailer.
func checkpointImage(payload []byte) []byte {
	img := append(append([]byte(nil), checkpointMagic...), payload...)
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(payload, walCRC))
}
