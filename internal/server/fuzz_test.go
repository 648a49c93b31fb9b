package server

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"parcube"
)

// fuzzServer builds a small served cube; handle is exercised directly, the
// way serveConn drives it, without the TCP hop.
func fuzzServer(f *testing.F) *Server {
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "item", Size: 4},
		parcube.Dim{Name: "branch", Size: 3},
		parcube.Dim{Name: "time", Size: 2},
	)
	if err != nil {
		f.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	for i := 0; i < 4; i++ {
		if err := ds.Add(float64(i+1), i, i%3, i%2); err != nil {
			f.Fatal(err)
		}
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		f.Fatal(err)
	}
	return New(cube)
}

// FuzzHandleLine feeds arbitrary request lines (plus a streamed payload
// for DELTA-style commands) to the protocol handler. Every non-blank
// line must produce exactly one OK or ERR response line (plus row
// payload) and never panic, whatever the client sends; the only
// permitted silent outcome is a connection close on a truncated stream.
func FuzzHandleLine(f *testing.F) {
	seeds := []struct{ line, payload string }{
		{"SCHEMA", ""}, {"TOTAL", ""}, {"STATS", ""}, {"SHARDINFO", ""}, {"QUIT", ""},
		{"GROUPBY item", ""}, {"GROUPBY item,branch", ""}, {"GROUPBY", ""}, {"GROUPBY bogus", ""},
		{"GROUPBY item,item", ""}, {"GROUPBY item,branch,time", ""},
		{"QUERY GROUP BY item WHERE branch = 1", ""},
		{"QUERY GROUP BY item WHERE time BETWEEN 0 AND 1 TOP 2", ""},
		{"QUERY ", ""}, {"VALUE item 2", ""}, {"VALUE item,branch 1,2", ""}, {"VALUE - ", ""},
		{"VALUE item 99", ""}, {"VALUE item notanumber", ""}, {"VALUE", ""},
		{"TOP 3 item", ""}, {"TOP 0 item", ""}, {"TOP 99999999 item,branch", ""}, {"TOP x item", ""},
		{"BOGUS stuff", ""}, {"total", ""}, {"  GROUPBY   item , branch  ", ""},
		{"DELTA 1", "1,1,1 4\n.\n"}, {"DELTA 2 7", "0,0,0 1\n1,2,1 2\n.\n"},
		{"DELTA 1", ".\n"}, {"DELTA 1", "junk\n.\n"}, {"DELTA 0", ""},
		{"DELTA 99999999999", ""}, {"DELTA 1 0", "1,1,1 4\n.\n"},
		{"DELTA 1", "1,1,1 4\nextra\n"}, {"DELTA x", ""}, {"DELTA", ""},
		{"DELTASINCE 0", ""}, {"DELTASINCE -1", ""}, {"DELTASINCE", ""},
		{"DENSE GROUPBY item,branch", ""}, {"DENSE GROUPBY", ""}, {"DENSE QUERY WHERE item = 1", ""},
		{"DENSE TOTAL", ""}, {"DENSE", ""}, {"dense query group by bogus", ""},
	}
	for _, s := range seeds {
		f.Add(s.line, s.payload)
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, line, payload string) {
		// serveConn reads single \n-terminated lines, trims them, and
		// skips blanks before handle ever sees them; mirror that here.
		if strings.ContainsRune(line, '\n') {
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		quit := srv.handle(nil, bufio.NewReader(strings.NewReader(payload)), w, line)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if out == "" {
			if !quit {
				t.Fatalf("no response to %q without closing the connection", line)
			}
			return
		}
		if !strings.HasPrefix(out, "OK") && !strings.HasPrefix(out, "ERR ") {
			t.Fatalf("response to %q is neither OK nor ERR: %q", line, out)
		}
	})
}

// FuzzParseCoords checks the coordinate-list parser: on success it returns
// exactly n integers that survive a render/re-parse round trip; on failure
// it returns no coordinates.
func FuzzParseCoords(f *testing.F) {
	f.Add("1,2,3", 3)
	f.Add("", 0)
	f.Add(" 4 , 5 ", 2)
	f.Add("-", 1)
	f.Add("1,,3", 3)
	f.Add("9999999999999999999", 1)
	f.Add("0x10,2", 2)
	f.Fuzz(func(t *testing.T, s string, n int) {
		coords, err := parseCoords(s, n)
		if err != nil {
			if coords != nil {
				t.Fatalf("coords %v alongside error %v", coords, err)
			}
			return
		}
		if len(coords) != n {
			t.Fatalf("parseCoords(%q, %d) returned %d coords", s, n, len(coords))
		}
		if n == 0 {
			return
		}
		rt, err := parseCoords(joinCoords(coords), n)
		if err != nil {
			t.Fatalf("round trip of %v failed: %v", coords, err)
		}
		for i := range coords {
			if rt[i] != coords[i] {
				t.Fatalf("round trip changed %v to %v", coords, rt)
			}
		}
	})
}
