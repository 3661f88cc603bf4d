package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"blitzcoin"
)

// resultSHA is the digest outputs are compared by: CanonicalResultSHA
// after clearing the shard count, which like the ledger position records
// how a result was served and never what it is. A clustered result thus
// hashes like the local Execute of the same request.
func resultSHA(b []byte) (string, error) {
	var r blitzcoin.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return "", fmt.Errorf("decoding result: %w", err)
	}
	if m := r.Meta(); m != nil {
		m.Shards = 0
	}
	canon, err := json.Marshal(&r)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	return blitzcoin.CanonicalResultSHA(canon)
}

// localSHA executes req in-process and returns the digest of its result.
func localSHA(req blitzcoin.Request) (string, error) {
	res, err := blitzcoin.Execute(bg, req)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return resultSHA(b)
}

// checkResult applies the structural output checks: an exchange sweep
// conserved its pool and converged in every trial, an SoC run completed
// every task, a figure produced lines.
func checkResult(req blitzcoin.Request, res *blitzcoin.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	switch {
	case req.Exchange != nil:
		x := res.Exchange
		if x == nil {
			return fmt.Errorf("exchange request returned %s result", res.Kind)
		}
		if x.Trials != req.Trials || len(x.Rows) != req.Trials {
			return fmt.Errorf("%d trials, %d rows, want %d", x.Trials, len(x.Rows), req.Trials)
		}
		if x.Conserved != x.Trials {
			return fmt.Errorf("%d of %d trials conserved the pool", x.Conserved, x.Trials)
		}
		if x.Converged != x.Trials {
			return fmt.Errorf("%d of %d trials converged", x.Converged, x.Trials)
		}
	case req.SoC != nil:
		if res.SoC == nil || !res.SoC.Completed {
			return fmt.Errorf("SoC run did not complete every task")
		}
	case req.Figure != nil:
		if res.Figure == nil || len(res.Figure.Lines) == 0 {
			return fmt.Errorf("figure produced no lines")
		}
	}
	return nil
}

// defaultSeed is the seed the committed digest list was made with.
const defaultSeed = 1

//go:embed digests/engine-sweep.txt
var engineDigestFile string

// digestList parses "index sha description" lines; # starts a comment.
func digestList(text string) (map[int]string, error) {
	out := map[int]string{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var i int
		var sha string
		if _, err := fmt.Sscanf(line, "%d %s", &i, &sha); err != nil {
			return nil, fmt.Errorf("digest line %d: %v", n+1, err)
		}
		out[i] = sha
	}
	return out, nil
}

// digestBlocks is how many engine-sweep blocks the committed list covers.
const digestBlocks = 2

// writeDigests prints the digest list of the first digestBlocks blocks of
// the engine-sweep stream for the default seed.
func writeDigests() error {
	fmt.Printf("# engine-sweep result digests, seed %d: index sha256 request\n", defaultSeed)
	for i := 0; i < digestBlocks*engineBlockLen; i++ {
		it := engineItem(defaultSeed, i)
		sha, err := localSHA(it.Req)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		fmt.Printf("%d %s %s\n", i, sha, describe(it.Req))
	}
	return nil
}
