package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode holds the entry codec at the trust boundary it shares with
// /v1/sync: Decode never panics on any bytes, and an entry it accepts
// re-encodes to bytes it accepts again and that re-encode identically — so
// a replica that imports an entry persists and forwards a stable form.
func FuzzDecode(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	data, err := Encode(solvedEntry(f, "mixed6.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Encode(e)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v\n%s", err, enc)
		}
		enc2, err := Encode(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable (%v):\n%s\nvs\n%s", err, enc, enc2)
		}
	})
}
