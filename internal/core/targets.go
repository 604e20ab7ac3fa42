package core

import (
	"fmt"
	"math"
)

// CheckTarget validates one oracle target vector for design point idx.
// width is the target width established by earlier points (0 before the
// first accepted vector). A failure names the offending design point,
// so that a batch-level caller can report — or quarantine — exactly the
// point that misbehaved instead of the whole batch.
func CheckTarget(idx int, target []float64, width int) error {
	if len(target) == 0 {
		return fmt.Errorf("core: oracle returned an empty target vector for design point %d", idx)
	}
	if width > 0 && len(target) != width {
		return fmt.Errorf("core: oracle returned %d metrics for design point %d, want %d (target width must be consistent across points)",
			len(target), idx, width)
	}
	for o, v := range target {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: oracle returned non-finite value %v for metric %d of design point %d", v, o, idx)
		}
	}
	return nil
}
