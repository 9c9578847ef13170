let () =
  Alcotest.run "probcons"
    [
      ("prob", Test_prob.suite);
      ("parallel", Test_parallel.suite);
      ("faultmodel", Test_faultmodel.suite);
      ("quorum", Test_quorum.suite);
      ("core", Test_core.suite);
      ("scenario", Test_scenario.suite);
      ("markov", Test_markov.suite);
      ("cost", Test_cost.suite);
      ("sim", Test_sim.suite);
      ("raft", Test_raft.suite);
      ("raft-reconfig", Test_raft_reconfig.suite);
      ("pbft", Test_pbft.suite);
      ("probnative", Test_probnative.suite);
      ("benor", Test_benor.suite);
      ("properties", Test_properties.suite);
      ("rabia", Test_rabia.suite);
      ("obs", Test_obs.suite);
      ("frame", Test_frame.suite);
      ("service", Test_service.suite);
      ("chaos", Test_chaos.suite);
      ("cli", Test_cli.suite);
      ("dst", Test_dst.suite);
      ("fleet", Test_fleet.suite);
      ("replica", Test_replica.suite);
      ("validate", Test_validate.suite);
    ]
