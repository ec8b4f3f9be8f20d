//go:build !race

package buildtags

const raceEnabled = false
