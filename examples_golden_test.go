package heterohpc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"testing"
)

// exampleGolden maps an example under examples/ to the SHA-256 of its
// stdout, captured at commit 4197400 (`go run ./examples/<name> |
// sha256sum`). Each example checks its own numbers and exits non-zero on
// drift; the digest pins every line it prints as well. A change that moves
// one edits it here and says why in CHANGES.md.
var exampleGolden = map[string]string{
	"fault-tolerance":    "77afe5d3039979a55a3f456dc603b37404f4b9164e01edb1e8c1476fb3b4c6ee",
	"checkpoint-restart": "eae04fb4713d111e6e947692da613d5f2b72b7a56f73b6b6b7b5c5ebf72cb712",
	"quickstart":         "f96f4a5502cef1f2522c92b152bda6cc2732f5c06158694daf922c5e44c05d1e",
}

// TestExampleDigests runs each example of exampleGolden with `go run` (go
// test puts its toolchain's go command first on the PATH) and compares the
// SHA-256 of its stdout.
func TestExampleDigests(t *testing.T) {
	for name, want := range exampleGolden {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command("go", "run", "./examples/"+name)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s: %v\n%s", name, err, stderr.String())
			continue
		}
		sum := sha256.Sum256(stdout.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: stdout SHA-256 %s, want %s; stdout:\n%s", name, got, want, stdout.String())
		}
	}
}
