type hypervisor = Vmware | Virtualbox | Xen | Hyperv | Kvm_qemu

let hypervisors = [ Vmware; Virtualbox; Xen; Hyperv; Kvm_qemu ]

let years = [ 2015; 2016; 2017; 2018; 2019; 2020 ]

let cves hv ~year =
  match (hv, year) with
  | Vmware, 2015 ->
    [ "CVE-2015-2336"; "CVE-2015-2337"; "CVE-2015-2338"; "CVE-2015-2339"; "CVE-2015-2340" ]
  | Vmware, 2016 -> [ "CVE-2016-7082"; "CVE-2016-7083"; "CVE-2016-7084"; "CVE-2016-7461" ]
  | Vmware, 2017 -> [ "CVE-2017-4903"; "CVE-2017-4934"; "CVE-2017-4936" ]
  | Vmware, 2018 -> [ "CVE-2018-6981"; "CVE-2018-6982" ]
  | Vmware, 2019 ->
    [ "CVE-2019-0964"; "CVE-2019-5049"; "CVE-2019-5124"; "CVE-2019-5146"; "CVE-2019-5147" ]
  | Vmware, 2020 ->
    [
      "CVE-2020-3962"; "CVE-2020-3963"; "CVE-2020-3964"; "CVE-2020-3965"; "CVE-2020-3966";
      "CVE-2020-3967"; "CVE-2020-3968"; "CVE-2020-3969"; "CVE-2020-3970"; "CVE-2020-3971";
    ]
  | Virtualbox, 2015 -> []
  | Virtualbox, 2016 -> []
  | Virtualbox, 2017 -> [ "CVE-2017-3538" ]
  | Virtualbox, 2018 ->
    [
      "CVE-2018-2676"; "CVE-2018-2685"; "CVE-2018-2686"; "CVE-2018-2687"; "CVE-2018-2688";
      "CVE-2018-2689"; "CVE-2018-2690"; "CVE-2018-2693"; "CVE-2018-2694"; "CVE-2018-2698";
      "CVE-2018-2844";
    ]
  | Virtualbox, 2019 -> [ "CVE-2019-2723"; "CVE-2019-3028" ]
  | Virtualbox, 2020 -> [ "CVE-2020-2929" ]
  | Xen, 2015 -> [ "CVE-2015-7835" ]
  | Xen, 2016 -> [ "CVE-2016-6258"; "CVE-2016-7092" ]
  | Xen, 2017 ->
    [
      "CVE-2017-8903"; "CVE-2017-8904"; "CVE-2017-8905"; "CVE-2017-10920"; "CVE-2017-10921";
      "CVE-2017-17566";
    ]
  | Xen, 2018 -> []
  | Xen, 2019 ->
    [
      "CVE-2019-18420"; "CVE-2019-18421"; "CVE-2019-18422"; "CVE-2019-18423"; "CVE-2019-18424";
      "CVE-2019-18425";
    ]
  | Xen, 2020 -> []
  | Hyperv, 2015 -> [ "CVE-2015-2361"; "CVE-2015-2362" ]
  | Hyperv, 2016 -> [ "CVE-2016-0088" ]
  | Hyperv, 2017 -> [ "CVE-2017-0075"; "CVE-2017-0109"; "CVE-2017-8664" ]
  | Hyperv, 2018 -> [ "CVE-2018-8439"; "CVE-2018-8489"; "CVE-2018-8490" ]
  | Hyperv, 2019 -> [ "CVE-2019-0620"; "CVE-2019-0709"; "CVE-2019-0722"; "CVE-2019-0887" ]
  | Hyperv, 2020 -> [ "CVE-2020-0910" ]
  | Kvm_qemu, 2015 ->
    [ "CVE-2015-3209"; "CVE-2015-3456"; "CVE-2015-5165"; "CVE-2015-7504"; "CVE-2015-5154" ]
  | Kvm_qemu, 2016 -> [ "CVE-2016-3710"; "CVE-2016-4440"; "CVE-2016-9603" ]
  | Kvm_qemu, 2017 ->
    [
      "CVE-2017-2615"; "CVE-2017-2620"; "CVE-2017-2630"; "CVE-2017-5931"; "CVE-2017-5667";
      "CVE-2017-14167";
    ]
  | Kvm_qemu, 2018 -> [ "CVE-2018-7550"; "CVE-2018-16847" ]
  | Kvm_qemu, 2019 ->
    [ "CVE-2019-6778"; "CVE-2019-7221"; "CVE-2019-14835"; "CVE-2019-14378"; "CVE-2019-18389" ]
  | Kvm_qemu, 2020 -> [ "CVE-2020-1711"; "CVE-2020-14364" ]
  | (Vmware | Virtualbox | Xen | Hyperv | Kvm_qemu), _ -> []

let count hv ~year = List.length (cves hv ~year)
let total hv = List.fold_left (fun acc y -> acc + count hv ~year:y) 0 years
let grand_total = List.fold_left (fun acc hv -> acc + total hv) 0 hypervisors

let render_table () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-6s %10s %10s %6s %8s %9s\n" "Year" "VMware" "VirtualBox" "Xen" "Hyper-V"
       "KVM/QEMU");
  List.iter
    (fun year ->
      Buffer.add_string buf
        (Printf.sprintf "%-6d %10d %10d %6d %8d %9d\n" year (count Vmware ~year)
           (count Virtualbox ~year) (count Xen ~year) (count Hyperv ~year)
           (count Kvm_qemu ~year)))
    years;
  Buffer.add_string buf
    (Printf.sprintf "%-6s %10d %10d %6d %8d %9d\n" "Total" (total Vmware) (total Virtualbox)
       (total Xen) (total Hyperv) (total Kvm_qemu));
  Buffer.contents buf
