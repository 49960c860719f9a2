package core

import "dvsslack/internal/rtm"

// UseRescanAnalyzer hands p a full-rescan analyzer for ts. p's next
// Reset on a task set equal to ts keeps it (ReuseFor leaves the mode
// alone), so the run that follows is p's rescan twin.
func UseRescanAnalyzer(p *LpSHE, ts *rtm.TaskSet) {
	p.analyzer = NewAnalyzer(ts)
	p.analyzer.SetFullRescan(true)
}
