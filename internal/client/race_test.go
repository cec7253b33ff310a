//go:build race

package client

// raceEnabled reports a -race build, where the single-threaded bound test
// would take a minute and check nothing the detector adds to.
const raceEnabled = true
