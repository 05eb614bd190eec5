package kernel

import (
	"fmt"
	"hash/fnv"
	"sync"

	"camouflage/internal/analysis"
	"camouflage/internal/asm"
)

// verifiedSections caches §4.1 verification verdicts keyed by section
// content hash (sync.Map: pool boots and cells that fan out verify from
// many goroutines). Only clean verdicts are cached; failures always
// rescan.
var verifiedSections sync.Map

// VerifyImage runs the §4.1 static verification over the built image's
// code sections: "no code exists in the kernel ... which would read the
// keys from system registers". Key *writes* are legitimate in exactly
// two places — the XOM setter and the user-key restore of kernel exit —
// but key *reads* are forbidden everywhere. The scan result is memoized
// per section-content hash, so identical images are scanned once per
// process. Every boot path that can seed the shared machine pool
// (core.New, snapshot.BootOptions) runs this gate, keeping pool warm
// order irrelevant to whether an image was verified.
func VerifyImage(img *asm.Image) error {
	for _, name := range []string{".text", ".xom", ".vectors"} {
		sec := img.Sections[name]
		if sec == nil {
			return fmt.Errorf("kernel: verify: missing section %s", name)
		}
		if err := verifyNoKeyReads(name, sec.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// verifyNoKeyReads runs the §4.1 key-read scan over one code section,
// memoizing clean results by content hash.
func verifyNoKeyReads(sec string, code []byte) error {
	h := fnv.New64a()
	h.Write([]byte(sec))
	h.Write(code)
	key := h.Sum64()
	if _, ok := verifiedSections.Load(key); ok {
		return nil
	}
	for _, f := range analysis.ScanBytes(code) {
		if f.Kind == analysis.FindingKeyRead {
			return fmt.Errorf("kernel: %s reads keys: %s", sec, f)
		}
	}
	verifiedSections.Store(key, struct{}{})
	return nil
}
