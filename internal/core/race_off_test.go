//go:build !race

package core_test

// raceEnabled reports a -race build; see race_on_test.go.
const raceEnabled = false
