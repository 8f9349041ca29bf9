package bench

// recoveryMatrixGolden maps "scenario/policy" to the SHA-256 of the
// FormatRecovery text and of the journal bytes. Captured on the parent of
// the one-engine refactor (PR 17, f10153a) with only the takeAny
// pending-beats-poison fix applied, after every row held one value over
// -count=40 plain, -race -count=10 and -cpu 1,8 -count=10.
var recoveryMatrixGolden = map[string][2]string{
	"rd-crash/restart":                                   {"b7526cd7c6ce2d54d05f9e3d4de2797e81ee50714398d95f82219e06e90c353f", "0be667a0fff897b4ba8d38e306e9d09c09bb36d8584f38a1cb9859b350d8c1d0"},
	"rd-crash/shrink-continue":                           {"b19be52a4812bca4ee94593facd766af975ea2f663aa6bdefaee8c104fa8e64f", "d3fe33a1bb01b519a2b6fc5be69395ba292b38702636e6f32c9fd11317e4e689"},
	"ns-crash/restart":                                   {"388f08403d4380622dd75514dc0490a8d9371b0963a04bba9e58c9adda2cc1be", "5379381157aea695f4208b2a5aebd9fd37628d6df7d207f5dfb2d6dff8cb7a29"},
	"ns-crash/shrink-continue":                           {"e42ed374ffbaffe6bcd8d61988fa6f4d558e2e74875fb96f24a2a541425cc5f4", "b4fbe5e08b0a9eaf1a0a151da0bc43ece9dc1c4cdbf830b8eba44e17af03c1c1"},
	"rd-preempt-window-fits/restart":                     {"2501fd190b1ccb52648694e022bda4f1a5a107f95e55d4bda6df8d3c81f7910a", "3c702691863986490de8ce4a394a0c0deb85601470d2d095c2eb2e842a30bfaf"},
	"rd-preempt-window-fits/shrink-continue":             {"7ceaee85e260449ebc2abc8a592a796b16866d1b01ccdf7fac48dd9bb2521bd5", "56b08905829f25a218b70b64baf91ad1e3d7c7636d309908a503f71f78ce65a8"},
	"rd-preempt-window-fits/migrate":                     {"a64f86c563316c2958118503a6d6b97c3091d28de6f7c4b748010f8222a2dbff", "9d936ecbaf88fd054a1d85b365f37a941a27d4677f1409a5a64450dd7a6fd665"},
	"ns-preempt-window-fits/restart":                     {"f39c8312226c7cf2da74be689c80c7f09a06a4a779f62a4dc618b2e25067975f", "8171dd18ee881954ee13ee7b7877517bd7081832c2d9f07d2bb9945374eb01c5"},
	"ns-preempt-window-fits/shrink-continue":             {"6873b5790b9f3f37e8570df8f30dab75c41457e3bd7b82136334dd42b02f8060", "33bbfd99d15031b69f48576034e4d244c9c1785a357613086fa88ce41ee881f4"},
	"ns-preempt-window-fits/migrate":                     {"ec860f0ebb99fbceefdc2365219d48529a23ae98bef25f082c1a7bfbd3960d5c", "b0a03ab6b974bc67216f2a2c68445718902da5dcee889022f3800a1d9dd56b43"},
	"rd-preempt-window-too-short/restart":                {"fd5757b3836bf95ab46419312cc45f9a4d903c642f58529e9e6937499e3859ec", "d813d2a0dcb4702c6abfa041b0c996e114dcac4b40313b6dbc514bd2a8239484"},
	"rd-preempt-window-too-short/shrink-continue":        {"3a73e42545c6e08cb101d33e100a754124722e3ed5c4a9e989bc5d92576243fb", "d057521441371d7f6f6fdb75dbc39d069439712901dde1de94255e0070557dea"},
	"rd-crash-before-first-checkpoint/restart":           {"01daba81a94f728cc5829945b566b309c531c0a3648f807a82420e7af5de92ca", "06be057d9adddc7270bd307a731cb2306ff5851f804e58777d118211bcde439f"},
	"rd-crash-before-first-checkpoint/shrink-continue":   {"c4b3e1704ebaede6ae13c6f287f7bee5b02679446e7b109036f96ce414ee2ae1", "693f9d8bea770925a9a00a7386b474b50924f110c7cc91ac18f4575b4f891217"},
	"rd-storm-wave3-cascade1-dry-market/restart":         {"c1f3adfdc542877e839d2cc5e00b1f786f2e119e49f8ffae21705138e4a648c3", "4ba12a303b6e892285e3fe5664e1892418706c6428a7ec277de29eb6f84d6938"},
	"rd-storm-wave3-cascade1-dry-market/shrink-continue": {"99ea518c561aea90ef27dc62d62325db956b356ac7675ade3e83a2154bb03495", "57c557d9a24c156225f849e17cd39afb5cf3ce0124b60269ce2d5baaddac289e"},
	"rd-storm-wave3-cascade1-dry-market/migrate":         {"1f90cd90de63bb8b6d6039f50d96b9b5831748cf5d02895f8cc1c405f44179fd", "be05a809d382b59b5c43d8eb4f8d0909c0a6f5cc69b97fdbcdaf3056721909d2"},
	"rd-storm-wave3-cascade1/restart":                    {"89463eb09ec05c46c5f04fe4b28ca24d6d0102ed56ccdf2ef8da647efde43415", "886c0e99d61ea6c62046e9f97a75b85368032aade7b96b2f1ae596140be5a4ca"},
	"rd-storm-wave3-cascade1/migrate":                    {"970a177005deee86dbaccb769b53fe02302cf8a170fa5b2f5d7574ffa5bf72ea", "f78b6bffad08530c867819da4c9bdf5eba7a73c2075451d8625152ffd53b9441"},
	"rd-two-nodes-shrink-to-one/shrink-continue":         {"cc878da41ff3e7887085bbfdf4da909e92a0477c3a02b695bc845e2fe1242339", "a055b9ab4c5396b8c2b5a7d6e068051d7bbd6d7e7f32aa27dc53fb029ca6b5ba"},
	"rd-27-crash-preempt-straggler/restart":              {"a32bbac38b8d5555f3d49f88c4c1984c39d670baaef047081ceff49f6d4c1ff3", "a08d86aab6080c658f7e1c31d3ce8077e6a15a20572d37547f7237c266ddc313"},
	"rd-27-crash-preempt-straggler/shrink-continue":      {"d5cf22bab079dc9bb6129ada80d1b4848159fa80d32d1b89c35d56b32c23d64e", "2bff889457623f5f4f3cc2dc849324ea61835b26deea7e22a79a2bc06de3cc2c"},
	"rd-two-crashes-spares/restart":                      {"d8e4d84302ec3f366c5cd8b5f02449440d79b32e12a115962972bff52f93a2a9", "e7050560369a472e90bffbc74fa370c484a97f0bb3ddaf165328df2c1df02364"},
	"rd-two-crashes-spares/shrink-continue":              {"969d23ba60e7df189b766894b65d037cad613a63f43a058c28f804d99af313d5", "478b84d20a827dfe46b496c73996e987df74591a6fbf3e86f3bdae00a9fbe122"},

	// Re-captured on the one-engine tree (same soak): the migrate policy's
	// reactive fallback now is PolicyShrink's step, so these rows gained the
	// "repartition" decision (report line and journal event), a real
	// PartitionImbalance instead of 0.000, and — on a single surviving node —
	// stopped counting un-mirrored bytes as BuddyBytes. Text diffs against the
	// parent are in CHANGES.md (PR 18); nothing else in them moved.
	"rd-crash/migrate":                         {"76fc2437312af0dab79f04e361cc8fa34a25839a867f4168be5edec2ae0b95ae", "5e198261979060a631ee4fd8bb4bb2092e2275e83b8ec53bb2d1e894d2bcbeb0"},
	"ns-crash/migrate":                         {"2dc9d6265bb23ff88d5d5b6686775c0a80c1cf891a39d79179db16d97de0ff2f", "ee28e80fd5c324df8b647f6ee9d25062499984ea48853d7520277c4d4dba86c3"},
	"rd-preempt-window-too-short/migrate":      {"4004ca3887f1116ae04a309bcee8e41df7d49648516e47bb49151ba15dc3ee2a", "c4243ae8b7f0c6a025c7461983b549369a696ac8a21ce257c987e022637c9d12"},
	"rd-crash-before-first-checkpoint/migrate": {"7245ec61ab2dfaf02bc56fd913da3e3b01f6e58eef058e73498b04f51cb1110f", "e5e5614f8920a2ed8d2be260442b43e0aec1c304370d47174377789f813edb9b"},
	"rd-capped-market-retries-regrow/migrate":  {"fa1935066b5451d73ecca926af98f517f851362d975629713c40246133b29296", "278e7ad0795afc21361db7e1667b01f497e4d84f4ffee78fb9914ea909834fa9"},
	"rd-regrow/migrate":                        {"632cecde0df8633ce45c24b1607214bfd76d304c8faca6c7f06afd3d55050616", "a6382cabe66e831e4513fe0509eebc144381d2bd28c4803f05c5f4cc04d4cca0"},
	"rd-two-nodes-shrink-to-one/migrate":       {"cf6df3de8e73e5ed6c142fa82d68dd350f5d7765f9027aa1150a5fa1cd39dae2", "33226a4bff101745f5a97ccc44d96e10ab8b7cdb72a51f8bf7194e9ce53a708f"},
	"rd-two-nodes-then-none/migrate":           {"efce84e8fcef4b858165bd74c072eea637221e18bd9c2e649e48107e3305f154", "a8e81d270dcbccefb2f5561e4954b5d603df544eb5a2d478e44e3a1983b82f01"},
	"rd-27-crash-preempt-straggler/migrate":    {"d7a00dd49b1fc111fd2e289e594d83696b640ccc6b208d2bf29066e60a20cdce", "55f67e3c5c8805ec37fd1758d8e41137f74b3496dddc3892cd9bbd8dfab84c29"},
	"rd-two-crashes-spares/migrate":            {"ac285e0d597ae01f0b10396c1f3183e381ac40e19245dadd3e350f0b0a0df6ed", "95cf487fee0286913031cbe092c6335d72ff8e2bf90046c556a8bb8f37242f5d"},

	// The 64-rank storm (storm64). Restart and migrate captured on the parent
	// of the directed-receive change (PR 21, b229a65), where three runs agreed
	// and agree with `heterobench faults` at the same options. The shrink row
	// had no value there — three journals and three reports in three runs —
	// and is pinned on the tree that removed mp's any-source receive, after
	// -count=40 plain, -race -count=10 and 12 CLI runs over GOMAXPROCS 1, 2, 4
	// gave one value.
	"rd-64-storm-wave3/restart":         {"c7a2cdc8ac275dd7c1e0f106d5da4a5491e1394c0b31e56808d6eae0f137e004", "9771b8afa2da9692edb068747494f90220d8dddc484baf69d240a31e0df0a010"},
	"rd-64-storm-wave3/migrate":         {"a7ec01c94065159b31315e6773fc09d09beac289577dca7211a3029e308a3690", "fb69be86cb4043bfc7f7984693f01b7e8367c3891346a5dfa7a76f4b2e18e2ff"},
	"rd-64-storm-wave3/shrink-continue": {"6a10f52fde9968692f20a6ce86291458a9a30fd6010e44b0c72cc87fca65cf72", "352219be8e5a6494b227416fa2569082d34cdfad6f4ce1bdc1f3e74f0f091eb8"},

	// The three rows whose scenarios set the spare-pool size and the spot bid
	// fraction, re-expressed with both at their defaults (two cold spares, a
	// bid of 0.25 of on-demand) and captured on the tree that still had the
	// two options, after every row held one value over -count=40 plain and
	// -race -count=10.
	//
	// Two restart rows re-hashed since: rd-dry-market-degrade/restart and
	// rd-storm-wave3-cascade1-dry-market/restart, where a preemption finds
	// the market sold out and the job degrades. Their "drain" decision said
	// the notice window staged a replacement that was never bought; it now
	// says none was found. That line is the only change in either report or
	// journal (no backoff then or now). And rd-dry-market-degrade/migrate:
	// its fallback shrink rolled back to the evacuated copies' arrival, after
	// the stop, and charged -0.015 s; evacuated copies now keep their
	// checkpoint's time, so the rollback and the waste read 0.117 s and the
	// recovery cost $0.00008. Those three lines (and the journal's restore
	// line) are the only change.
	//
	// The two restart rows again, after a degrade began renumbering the
	// plan's slots onto the smaller launch: the events still aimed at slots
	// it released now log "drop" instead of a notice (storm row) or a silent
	// arm past the topology. Those decision lines and their journal events
	// are the only change.
	//
	// The three degrading restart rows once more, after a degrade began
	// re-partitioning the submitted mesh onto one node fewer and resuming
	// from the stable restore line (through the shrink path's repartition)
	// instead of launching the largest smaller cube's own problem from step
	// 0: the degrade line moves after the drain or backoff line, lands on 6
	// of 8 (24 of 27) ranks and no longer says the checkpoints are
	// discarded, a "repartition" and a "restore" line follow it, events
	// aimed at surviving slots are no longer dropped (the storm row logs
	// slot 1's notice instead), and the recovered column solves the clean
	// run's mesh. Text diffs against the parent are in CHANGES.md (PR 54).
	// Held over -count=40 plain and -race -count=10.
	"rd-no-spares-degrade/restart":  {"d550e27740be139b458e43a2b987022707737cf66ecca5c558b8500c9d58a6d7", "33a2086e7fa0b9949cc28d2e9ff07641285e8ed2fe3beb6573345984911a0860"},
	"rd-dry-market-degrade/restart": {"60885fe89769e1231cfe140390e53bf1db84c602fb97de31ae6b4cd43efa54ab", "4d2705786a2913778e651783d4a0e563900164adf2e8d40a295d4b84edecae70"},
	"rd-dry-market-degrade/migrate": {"423140e9e0a121e0018cabaae745ecd74508c57a0d99d6b35377d01a96b03ba0", "b309e0645f48fefb6fdbb16ca0aa73656f06cd89cd96063e760f048fed5fe937"},
}
