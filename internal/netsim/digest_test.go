package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mmlab/internal/fault"
	"mmlab/internal/sib"
	"mmlab/internal/traffic"
)

// driveScenarios are the drive flavors whose outputs are frozen below:
// idle, active with traffic, and fault-injected with RLF recovery (which
// exercises the scheduler's quiet-span skip, with and without an app).
var driveScenarios = []struct {
	name string
	opts func() UEOpts
	// result and diag are SHA-256 digests of the JSON-encoded DriveResult
	// (encoding/json sorts map keys) and of the diag capture bytes.
	result, diag string
}{
	{"idle", func() UEOpts { return UEOpts{Seed: 5} },

		"a28b41a32086498aedb5f583acdaf8161ae75f7be3fd0c69350e570df314834e",
		"e7204f813337227ec019ede27d402077191e8e4977bb268737544e8fbfab326d"},
	{"active-speedtest", func() UEOpts {
		return UEOpts{Seed: 5, Active: true, App: traffic.Speedtest{}}
	},
		"64cdf865a84cf19cfb4408915d63152572d4f905cfce3f03c766545b91bd0ec8",
		"d71ddb96077ca80394ab255941be5cd5f1ba53d05b9a29340fbdfce73735f906"},
	{"active-tcp-defaultfaults", func() UEOpts {
		return UEOpts{Seed: 5, Active: true, App: traffic.NewTCPDownload(),
			Injector: fault.New(7, fault.DefaultRates())}
	},
		"84ba1a7f3e4cd615fae802d28aced11833d81618da3ce020ddfcd349c8556642",
		"495ed8664b0403a42dd81781ce27075531bb613d4be283dcaebe60b693ca2460"},
	{"active-fade-rlf", func() UEOpts {
		return UEOpts{Seed: 5, Active: true, App: traffic.Speedtest{},
			Injector: fault.New(11, fault.Rates{Fade: 0.35})}
	},
		"1bf49abda0a807ef4a6b555d9a5675092fc66d3ffb786a60f3078b4c2118b200",
		"efa33f4c47df8755ae38a7001d5bb41232ece73e8a04b54a89355a4dc76abeb3"},
	{"active-fade-noapp", func() UEOpts {
		return UEOpts{Seed: 5, Active: true,
			Injector: fault.New(11, fault.Rates{Fade: 0.35})}
	},
		"48a32a54eae293667a09ed56585764676cc26278245709a057912deb7c8d6281",
		"efa33f4c47df8755ae38a7001d5bb41232ece73e8a04b54a89355a4dc76abeb3"},
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestDriveDigests pins every drive flavor to frozen digests of its
// DriveResult and diag capture, recorded from the seed's fixed-step tick
// loop and linear cell scan before those were deleted: the event
// scheduler over the spatial index must keep reproducing them bit for
// bit.
func TestDriveDigests(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{LTELayers: 3})
	route := RowRoute(w, 45, 120)
	for _, sc := range driveScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var diag bytes.Buffer
			o := sc.opts()
			o.Diag = sib.NewDiagWriter(&diag)
			res := RunDrive(w, route, route.Duration(), o)
			if err := o.Diag.Flush(); err != nil {
				t.Fatal(err)
			}
			enc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(enc); got != sc.result {
				t.Errorf("DriveResult digest %s, frozen %s", got, sc.result)
			}
			if got := sha(diag.Bytes()); got != sc.diag {
				t.Errorf("diag digest %s, frozen %s", got, sc.diag)
			}
			if sc.name == "active-fade-rlf" && res.Failures.Reestabs == 0 {
				t.Fatal("fade scenario produced no re-establishments; quiet-span skip untested")
			}
		})
	}
}
