(* Regression tests for listing-order determinism: the three functions
   that read a Hashtbl out into a list must return the same ordering no
   matter what insertion history produced the table. These pin the
   fixes flagged by the hashtbl-order lint rule. *)

let mk_host () =
  let ctx = Sim.Ctx.create () in
  let uplink = Net.Fabric.Switch.create ctx ~name:"up" ~link:Net.Link.lan_1gbe in
  let host =
    Vmm.Hypervisor.create_l0 ~ksm_config:Memory.Ksm.fast_config ctx ~name:"host" ~uplink
      ~addr:"192.168.1.100"
  in
  (ctx, host)

let launch_exn host cfg =
  match Vmm.Hypervisor.launch host cfg with Ok vm -> vm | Error e -> Alcotest.fail e

let small_vm name =
  { (Vmm.Qemu_config.default ~name) with Vmm.Qemu_config.memory_mb = 8 }

let file rng name = Memory.File_image.generate rng ~name ~pages:3

let load_exn vm f =
  match Vmm.Vm.load_file vm f with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let loaded_files_tests =
  [
    Alcotest.test_case "Vm.loaded_files is sorted regardless of load order" `Quick
      (fun () ->
        let rng = Sim.Rng.create 7 in
        let names = [ "zeta"; "alpha"; "mmap_me"; "file_a"; "beta" ] in
        let files = List.map (fun n -> (n, file rng n)) names in
        let listing order =
          let _, host = mk_host () in
          let vm = launch_exn host (small_vm "vm") in
          List.iter (fun n -> load_exn vm (List.assoc n files)) order;
          Vmm.Vm.loaded_files vm
        in
        let a = listing names in
        let b = listing (List.rev names) in
        Alcotest.(check int) "same length" (List.length a) (List.length b);
        List.iter2
          (fun (na, _, pa) (nb, _, pb) ->
            Alcotest.(check string) "same name order" na nb;
            Alcotest.(check int) "same page count" pa pb)
          a b;
        let names_of l = List.map (fun (n, _, _) -> n) l in
        Alcotest.(check (list string))
          "sorted by name"
          (List.sort String.compare (names_of a))
          (names_of a));
  ]

let forwards_tests =
  [
    Alcotest.test_case "Node.forwards is sorted regardless of insertion order" `Quick
      (fun () ->
        let rules =
          [ (5901, "10.0.0.2", 5902); (22, "10.0.0.3", 22); (8080, "10.0.0.4", 80);
            (443, "10.0.0.5", 443); (5902, "10.0.0.6", 5901) ]
        in
        let listing order =
          let ctx = Sim.Ctx.create () in
          let sw = Net.Fabric.Switch.create ctx ~name:"sw" ~link:Net.Link.lan_1gbe in
          let node = Net.Fabric.Node.create ~addr:"10.0.0.1" in
          List.iter
            (fun (from_port, addr, port) ->
              Net.Fabric.Node.add_forward node ~from_port
                ~to_:(Net.Packet.endpoint addr port) ~via:sw)
            order;
          Net.Fabric.Node.forwards node
        in
        let a = listing rules in
        let b = listing (List.rev rules) in
        Alcotest.(check (list int))
          "same port order"
          (List.map fst a) (List.map fst b);
        Alcotest.(check (list int))
          "sorted by port"
          (List.sort Int.compare (List.map fst a))
          (List.map fst a);
        List.iter2
          (fun (_, ea) (_, eb) ->
            Alcotest.(check string)
              "same endpoints" ea.Net.Packet.addr eb.Net.Packet.addr)
          a b);
  ]

(* Two tables with identical contents but different Hashtbl insertion
   histories: table B round-trips several PIDs through [reassign_pid],
   which reinserts them and perturbs bucket order without changing the
   table's contents. *)
let process_table_tests =
  [
    Alcotest.test_case "Process_table.all / ps_ef independent of bucket history" `Quick
      (fun () ->
        let spawn_all () =
          let engine = Sim.Engine.create () in
          let table = Vmm.Process_table.create engine in
          List.iter
            (fun name ->
              ignore
                (Vmm.Process_table.spawn table ~name ~cmdline:("/usr/bin/" ^ name)))
            [ "init"; "sshd"; "qemu-kvm"; "cron"; "ksmd"; "qemu-kvm" ];
          table
        in
        let a = spawn_all () in
        let b = spawn_all () in
        let roundtrip pid =
          (match Vmm.Process_table.reassign_pid b ~old_pid:pid ~new_pid:(pid + 1000) with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          match Vmm.Process_table.reassign_pid b ~old_pid:(pid + 1000) ~new_pid:pid with
          | Ok () -> ()
          | Error e -> Alcotest.fail e
        in
        List.iter roundtrip [ 300; 303; 301; 305 ];
        let pids t =
          List.map (fun p -> p.Vmm.Process_table.pid) (Vmm.Process_table.all t)
        in
        Alcotest.(check (list int)) "same pid order" (pids a) (pids b);
        Alcotest.(check (list int))
          "sorted by pid"
          (List.sort Int.compare (pids a))
          (pids a);
        Alcotest.(check string)
          "ps_ef renders identically"
          (Vmm.Process_table.ps_ef a)
          (Vmm.Process_table.ps_ef b));
  ]

let () =
  Alcotest.run "determinism"
    [
      ("loaded-files", loaded_files_tests);
      ("forwards", forwards_tests);
      ("process-table", process_table_tests);
    ]
