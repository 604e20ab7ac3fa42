// Package determinismscoped mirrors serve: only its pure layer (this
// file) is in the determinism scope; wall.go is the measurement layer
// and exempt.
package determinismscoped

import "time"

// ScheduleStamp is in the scoped file: flagged.
func ScheduleStamp() time.Time {
	return time.Now() // want `time\.Now in result-affecting package`
}
