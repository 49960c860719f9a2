package dvs

import (
	"dvsslack/internal/core"
	"dvsslack/internal/rtm"
)

// UseRescanAnalyzer hands p a full-rescan analyzer for ts. p's next
// Reset on a task set equal to ts keeps it (ReuseFor leaves the mode
// alone), so the run that follows is p's rescan twin.
func UseRescanAnalyzer(p *FeedbackEDF, ts *rtm.TaskSet) {
	p.analyzer = core.NewAnalyzer(ts)
	p.analyzer.SetFullRescan(true)
}
