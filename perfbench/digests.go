package main

// Committed references for the default seed (--seed 1). A change to
// any of these values means the simulator's output changed.

// paperDigests is the SHA-256 of every experiment's rendered output,
// by scale.
var paperDigests = map[string]map[string]string{
	"full": {
		"bandwidth-sweep":  "6324c1c09a4d9f784095a83cb3e093bf1f860cdf2688e2e1cb213f9384668db4",
		"consumers":        "604478b5c211e9f98ce9c4b30d6c8f8bea7d8c03edcd908c814fafc5b27ac7ac",
		"detector-compare": "3108ea6a55d9cbd4a4b0d1838107ca3f4fc1ea0875bf0f2f105669deb3dde1b2",
		"fig14":            "e27aa46174048080fe642a8b728440561e1a6c2b8f659b9ee081687ca1058ebd",
		"fig15":            "dd5e960f0922929c3b418658561b3f086335d849f2b3f8dc0e1f0c34621f6bbf",
		"fig2":             "30db3c43f6c9c462432d5db067bf427e00bab6c981a7baeba8f409596272bb14",
		"fig2-attrib":      "813b967f8b21a32bfd6bb3cd5e70cb39fc33332e8247a16d49508b5d34296acc",
		"fig4":             "709523f16c64d181417b1ebca80cdddeaf76eb504d308818977cbb91c0121f3f",
		"fig5":             "26f70025e622e5e75a5c013ef9c3ee3f093ea3fd7919270b40ac5f711d40c4ed",
		"fig6":             "e6a4dae13030d36ab5c20dee3ccdd5c7c63025d7ea36caf4164e873397d4065d",
		"fig8":             "1cb826db35f707361ce2bd6d39289669924f1cc82c5b1ad358f7248d43644e5f",
		"fwd-sweep":        "1e34fcf95e7f8edfff6ca23ed1961a9576b7d3b4a97084420aa3070cd8a1994f",
		"group-steer":      "7878500f4cff3c039ec026e04dffa7c0e18a22fa24f08f62a545ced304b7b2de",
		"icost":            "7e8e484126685431fb80b3667a9d961b2d3d4de2308af94cb4b7bbf7e561be42",
		"loc-oracle":       "36fb8bc7ab4ec86a31c05b7173d00afd908d07657018e0e9485b7e5d0871a2d3",
		"predictor-sweep":  "ff17de50140983d2492dcbc128c6aff33dc87ed776318903499d32fbe54ddca0",
		"replication":      "75b56e5ed4d3708ef4702871a6f044b2753eae312ac6833db696f79f6336f7ff",
		"slack":            "ebb37e5e98b7af6324fda7fcc529b23f588895acaaa9bb60c8c6d81fb8c87995",
		"stall-sweep":      "949f1a7a6be854de435ed0656eb10ba61e179b9cc8784ad473f14fad66a7bb81",
		"window-sweep":     "bc296e0d6468374ef544c27ed448854fa242962f87894e3d59e05a7353f35077",
		"workloads":        "3575e935f63c8a362cb3e417ff4a79ed3816cf069c17d3b0f7cc83ab316df94d",
	},
	"tiny": {
		"bandwidth-sweep":  "78f2aa81dd9678a26d9e0feae98e8fb8bb7fde2ae09ddc918d6cd79d1afe9432",
		"consumers":        "c053eadfbad0f7be3d0dba0c01ff9954c42683c82b2ceca37b548febe00b2757",
		"detector-compare": "21c5938ab0cb67d2d5f7790446e8b590f995438f8804b458fad3476dfd6fb208",
		"fig14":            "872e6a42b3c766e785cce00c060f68cc3f79b2eeacdc222e5dc11213f4ba512f",
		"fig15":            "5566450b9493224bdf39b6c8ab4f81c580312f7a4777bddae07ae2f8e5897ee8",
		"fig2":             "36e9bc8f25b7befe206a0b0ee3f1a5875e94b74385ed6972edefa0ecebd214e8",
		"fig2-attrib":      "5db3af9155f75cd889dacd9f426cc6d132bf77e6d0200081c9d4830ccb23455d",
		"fig4":             "84b06773bd17fa7665828af222a95871e17227c6520b137b76fc5d82b6bd1bb7",
		"fig5":             "46ef98fe79f709f6ad85de9779e7adfa9513899e79bd161a31a602857f3a0933",
		"fig6":             "07566a5ffd8f27c8fa8abad13195c9e513b6438cd2e4bc46ccbc761d354f8d80",
		"fig8":             "4334122d63d32b2a48ce41fa6c6af3bf524e7b5d5e67a89d1205d8c2c4d7f714",
		"fwd-sweep":        "06c641804890d10558d31515d1327a1be9693e8a31a426136826432cd9c48875",
		"group-steer":      "027c357790341a07f6b5a39ef7fb3a9a7789cc76f7db7468e6689587e2565d5c",
		"icost":            "c8196376d0b035114754657e40853017680bb47d7ab02ed3c25a2a02b562c562",
		"loc-oracle":       "5026f25a1548771c28368ebc2f6292a5b64ea26a82697a862be14396cdf64299",
		"predictor-sweep":  "18b53742b42e19cbd7d4ce9ae78fb43df000aa1c67702c71b48b58cea2a9d4b3",
		"replication":      "2cf5b7897f4845dd52149b4f917610cec46c7dcaa09cd441fdc438f85320ecfc",
		"slack":            "d63865f9cd5ed84c01fef0bc8967011479bb563f202563036c86ad3e05e816e8",
		"stall-sweep":      "caf55ffcc370f3e0a335ca6b137375d2fb293b9b4fc4e7859b08a5848162a9af",
		"window-sweep":     "9cae62971f64798c45b6929e62279e3123a19c1cb655d9939bbd5cc2e4ea9df9",
		"workloads":        "ce5696cf2c34d475048e792fb50b3c5b07ed506e125ce355550fd71f885fe232",
	},
}

// streamTotals is the windowed simulation's totals, by scale.
var streamTotals = map[string]streamTotal{
	"full": {Cycles: 4406876, Insts: 4000001, Windows: 62},
	"tiny": {Cycles: 169138, Insts: 150000, Windows: 3},
}
