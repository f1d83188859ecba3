package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// digestScales are the two small scales TestReportDigests runs every
// experiment at: a cold two-channel-point sweep, and a warm-fork one (a
// distinct protocol with its own results, DESIGN.md §12).
var digestScales = []struct {
	name string
	sc   Scale
}{
	{"cold", Scale{Cores: 4, InstrPerCore: 1200, Warmup: 400, CacheDiv: 8,
		HomMixes: 2, HetMixes: 1, CloudMixes: 1, Channels: []int{4, 16}, Seed: 1, Workers: 2}},
	{"warm", Scale{Cores: 4, InstrPerCore: 1000, Warmup: 300, CacheDiv: 8,
		HomMixes: 1, HetMixes: 1, CloudMixes: 1, Channels: []int{8}, Seed: 2, Workers: 2, WarmFork: true}},
}

// reportDigests pins every report's bytes: the sha256 of its rendering
// (String, then MarshalJSON) per experiment and scale. A change to how
// figures are declared, run or assembled must leave every entry as it is.
// Re-record only with an intended change to a simulated result or to a
// report's layout, and say which in the commit.
var reportDigests = map[string]string{
	"cold/fig1":                "ea66123f79c35286e0f1975d160a3cf7b5a070cdbe30d7e9a30a731bff64cd2f",
	"cold/fig2":                "2da564910dae9a1f26c0938b8bbc0ae604f4120c29c732eb19868db569b30e87",
	"cold/fig3":                "fbdc7fbd96ccfbc628e62dd8ebd1b5564997f01aa56ea92665dabb082d0dae20",
	"cold/fig4":                "db8efc7640f51a80532d752a6617b57e787f48e4041a22e6b2e17f468a4d7b56",
	"cold/fig5":                "8241996b5b12726ac9e53a9e251e1c5c2590d883c946528217328501b7f0defe",
	"cold/fig6":                "abbf9855425129c171000634350843563aa56970d823aaaf61a9f40bc9aeece4",
	"cold/fig9":                "f34cf51637dc5d1cc534ec1a98f93880c70447d803639598e1c80b144e541308",
	"cold/fig10":               "72d6839ba4b1e34fed91bcc7240069a111351af31f1a3967a5ea115e8ff7dc0a",
	"cold/fig11":               "f5040c0d24787ff1ce7d3df20cc1e97b5eeeea7e011ad12b0ec15ca5160bd399",
	"cold/fig12":               "4d2cbd5c384b76df67ed5a58564206b92f1368696aaa20d5cd12524ac2a3ae91",
	"cold/fig13":               "bad41877aced9d2dda17b495b11ef831860c6ae0c1416dc3353d4e6720131aa5",
	"cold/fig14":               "3ee89719c17476dc8938e4025c9979504048d4efbd3119c2323144f96d03e005",
	"cold/fig15":               "531fa1bc776acb6d4cd92071ba29cb5d2cf237afb126057743cf19b1575e005b",
	"cold/fig16":               "97d06ce359c4fe1aa159d813b8e84cf3cba39d61bcd402455a57d54d63428946",
	"cold/fig17":               "3bfa1aabfd005c26f809b70468eb316042eee5db6c82bac5587e84541246eee9",
	"cold/fig18":               "d170e2cb2bb0f7e793823178d18156a22c6164e9f59a1f2efdd7da55f127cd19",
	"cold/fig19":               "8be42994fb97cfc7e7da2534c87c1c6fa2ed1a90cac9fcf83af062ab88dc320c",
	"cold/fig20":               "969e154a6aba65c30aa0dc72caf1ad8abf82760c8a11c97fd2ca750e45d9880b",
	"cold/fig21":               "a0d2308fb55a8d55034a83ca7ec256725e0fecde1c18bd4d93abd4d948a32302",
	"cold/table2":              "654b1e776bb64a6e77662ed64c68ebb7572d0b3c14491b790bb7e8f5a3e85e65",
	"cold/energy":              "44882058729f853c3b5ab5d33b22b86a82bbde67a1312bdefe63874e69d0d1fb",
	"cold/sens-cores":          "dbd22ecc7da8cdc3d71b281e6d4e537d4ccb16de5225723adadbaaed6fc42727",
	"cold/sens-llc":            "1df0e8a546f557df4ef107b0747ef9e9ede1759a3895f86115cdf18a2b3e0b22",
	"cold/ablation-signature":  "369867f27b60fb351d3877bd5a13c270465cdcdecb7b7c60b449b5ca358bb80a",
	"cold/ablation-stages":     "c0fd0c50cac6b3d0f71c0fee992aae5f457ad29e046b0610080a20f4f903d4d5",
	"cold/ablation-thresholds": "9fd61d50ff354dd1dc5f57be27dbd53a580ccb0b2b7da0524f7ccb50a77de801",
	"cold/ablation-priority":   "e8230b56c76aa3d15c0ddda77774ea4154e7fbfb877e11ed44fb98b063051c28",
	"cold/ablation-dynamic":    "81a3da0977b1585f66dda11763b3edf91a5ccf39e124b6cf29cf57d6e6d37316",
	"warm/fig1":                "b65f743d30d556baa2b95e83e802056202c009ee2ee8edd6a6a2294dbcd7da9e",
	"warm/fig2":                "392bf73efcf3bf7a4e9c81e2111cdd15e8ac8b34201fa8258337664ff3668865",
	"warm/fig3":                "633997f657d03005bfd320356c85d13208baa0cfb960545b2591e4f08fc343ae",
	"warm/fig4":                "8136d14c99568b8e655d9bd1edae9072ff921b292dcdf057d2335af5d701fa59",
	"warm/fig5":                "0ef55e81999f93acb41b1623c51ea01f32e16ddb9675ce3a98e3d45f72483f64",
	"warm/fig6":                "20b122c7c540e1387d9e79effb07f4bd1cbf035c5f722db5208c38c3d23f4ac6",
	"warm/fig9":                "26aa8ff9e0f004fa53e57ad13dadeb211e9cede9370cfa41b906b490147ed12d",
	"warm/fig10":               "648ede964d6e58338dc934d3c135a543dfc6dd8537a026776aca22178fcc2866",
	"warm/fig11":               "0d28cf2765a8e2d475bd6b57951a25926bac07efec1e0bcef79079f933b8d00e",
	"warm/fig12":               "657e36be1b6c44255ded3d28a5c2cb4275f4bb844216a2be9467d28d29b41787",
	"warm/fig13":               "1867c43760fed1d96ecc50dec4d446ecab37e8c02971dc724f3d396b0a3568f9",
	"warm/fig14":               "a25744305dd0f1b85c2eede7b6252828eff67b769c18677acc09b2e5c8b066b3",
	"warm/fig15":               "aef5fc84728a3bcfdb401d7dee9d88fae9538f418347cb0677a9695d15b44290",
	"warm/fig16":               "88ce50fd37d209140579f71c930400cb8956fb5d981ecd6eb6cc7ac7c162f034",
	"warm/fig17":               "504c031fb536110d0225ba255d8baa3a415f0d29ad5c063790c1aa42e0f66b03",
	"warm/fig18":               "5c61a8f59302eb0e0706250fb7f8c39438a1e7dae260eeab24ca45d8a006ad91",
	"warm/fig19":               "7e56dea31d925abd430d5d4b15bef2502c921e4e7cdc456f7612eb227eedae5c",
	"warm/fig20":               "043f2a638fefe38eafa774958942f30fd0c3f7008602e41d836e9f095fcde4ba",
	"warm/fig21":               "a2150b2dfc3b9bc976098fa1a7e61faccdb58719a7aff7d97c906d5f55a42f23",
	"warm/table2":              "654b1e776bb64a6e77662ed64c68ebb7572d0b3c14491b790bb7e8f5a3e85e65",
	"warm/energy":              "78ce3b4bd6ba45163d4191411c7e7905da02672ad2985cbef9426d038bc33077",
	"warm/sens-cores":          "ddd76f131d8bbed933983ef43ee8bf09e71bfd2147a5b375a97aac1eeedab300",
	"warm/sens-llc":            "3efe745a930fd2c62a53691706cb2add9e34b9b61ce777b005f163191a6ffa51",
	"warm/ablation-signature":  "28f551134f858c94b7236524e45accd137f3b801811af97b68eac3cbf466134e",
	"warm/ablation-stages":     "39ed9c5f3de87e173df9c50234b50755c043c8a22a9ca45a44d575bc818cb998",
	"warm/ablation-thresholds": "ba424cc26b62ccb00f283956c09e00d9c6520e5ba4c6dd7220050e2b9461a571",
	"warm/ablation-priority":   "47aaefca65ffd71452c941de4680af69c19540d9f99c8cca018593182343835c",
	"warm/ablation-dynamic":    "dfdc16cd8520cb3aa0d7adf0ec63b84c747a306e1c5cf7185260bd0687fb068c",
}

// TestReportDigests runs every registered experiment at digestScales and
// compares each report's digest with reportDigests. On a mismatch it logs
// the whole table as this tree renders it.
func TestReportDigests(t *testing.T) {
	var table strings.Builder
	bad := len(reportDigests) != len(digestScales)*len(All())
	for _, ds := range digestScales {
		for _, e := range All() {
			rep, err := e.Run(ds.sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.name, e.Name, err)
			}
			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(append([]byte(rep.String()), js...))
			key, got := ds.name+"/"+e.Name, hex.EncodeToString(sum[:])
			if want := reportDigests[key]; got != want {
				t.Errorf("%s: report digest %s, want %s", key, got, want)
				bad = true
			}
			fmt.Fprintf(&table, "\t%q: %q,\n", key, got)
		}
	}
	if bad {
		t.Errorf("%d table entries for %d reports; this tree's table:\n%s",
			len(reportDigests), len(digestScales)*len(All()), &table)
	}
}
