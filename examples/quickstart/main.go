// Quickstart: the paper's Example 1 ("Slow Buffering Impact") end to
// end — build a table, run the nested-aggregate query online, watch the
// answer refine, and stop early once it is accurate enough.
package main

import (
	"fmt"
	"log"

	"fluodb"
	"fluodb/workloads"
)

func main() {
	db := fluodb.Open()

	// Attach 200k synthetic video-session rows (shuffled, so any prefix
	// is a uniform sample). In a real deployment you would LoadCSVFile
	// or Append your own rows.
	workloads.AttachConviva(db, 200_000, 7)

	// The SBI query (Example 1 of the paper): how long do users with
	// above-average buffering keep watching? The inner AVG makes it
	// non-monotonic — classic online aggregation cannot run it.
	const sbi = `
		SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`

	fmt.Println("plan:")
	plan, err := db.Explain(sbi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	oq, err := db.QueryOnline(sbi, fluodb.OnlineOptions{Batches: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("online refinement (stop at 0.5% relative standard deviation):")
	last, err := oq.Run(func(s *fluodb.Snapshot) bool {
		cell := s.Rows[0][0]
		fmt.Printf("  %3.0f%% of data: AVG(play_time) = %8.2f  95%% CI [%8.2f, %8.2f]  rsd %.3f%%  uncertain %d\n",
			s.FractionProcessed*100, f(cell.Value), cell.CI.Lo, cell.CI.Hi,
			cell.RSD*100, s.UncertainRows)
		// keep going while above 0.5%, or while RSD is +Inf: no cell
		// carries an error estimate yet
		return s.RSD() > 0.005
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stopped after %d/%d batches\n", last.Batch, last.TotalBatches)

	// Exact answer, for comparison (the traditional batch engine).
	exact, err := db.Query(sbi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact (full scan):   AVG(play_time) = %.2f\n", f(exact.Rows[0][0]))
}

func f(v fluodb.Value) float64 {
	x, _ := v.AsFloat()
	return x
}
