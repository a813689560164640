package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs two sets of runs end-to-end runs of one workload, each
// run its own process with seeds first, first+1, ..., and prints for every
// end-to-end metric each set's median and quartiles, its spread (the
// interquartile distance over the median), the bound from BENCHMARK.json,
// and how far the second set's median moved from the first's.
func steadiness(workload string, first int64, seconds float64, runs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2]map[string][]float64
	for set := range sets {
		sets[set] = map[string][]float64{}
		for i := 0; i < runs; i++ {
			seed := first + int64(i)
			out, err := runOnce(self, workload, seed, seconds)
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", set+1, seed, err)
			}
			if !out.Correct || out.Failed != 0 {
				return fmt.Errorf("set %d seed %d: correct=%v, %d of %d operations failed", set+1, seed, out.Correct, out.Failed, out.Attempted)
			}
			line := fmt.Sprintf("set %d seed %d:", set+1, seed)
			for _, d := range endToEnd {
				v := out.Metrics[d.name].Value
				sets[set][d.name] = append(sets[set][d.name], v)
				line += fmt.Sprintf(" %s=%.6g", d.name, v)
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("\n%s: %d runs per set, --seconds %g\n", workload, runs, seconds)
	fmt.Printf("%-13s %-5s %12s %12s %12s %8s %8s %9s\n", "metric", "set", "q1", "median", "q3", "spread", "bound", "shift")
	for _, bm := range bf.EndToEnd {
		var med [2]float64
		for set := range sets {
			xs := sets[set][bm.Name]
			q1, _, q3 := quartiles(xs)
			med[set] = median(xs)
			shift := ""
			if set == 1 && med[0] != 0 {
				shift = strconv.FormatFloat((med[1]-med[0])/med[0], 'f', 4, 64)
			}
			fmt.Printf("%-13s %-5d %12.6g %12.6g %12.6g %8.4f %8.3f %9s\n", bm.Name, set+1, q1, med[set], q3, spread(xs), bm.Bound, shift)
		}
	}
	return nil
}

// runOnce runs one end-to-end run as a child process and parses its last
// output line.
func runOnce(self, workload string, seed int64, seconds float64) (*resultOut, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var out resultOut
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &out, nil
}
