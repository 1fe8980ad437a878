//go:build race

package core_test

// raceEnabled reports a -race build, where sync.Pool drops recycled
// buffers at random and allocation counts say nothing about the code.
const raceEnabled = true
