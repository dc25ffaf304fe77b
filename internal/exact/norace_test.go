//go:build !race

package exact

const raceEnabled = false
