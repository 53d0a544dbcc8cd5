//go:build !race

package core_test

// raceEnabled is false in ordinary builds; see race_on_test.go.
const raceEnabled = false
